//! Triple samplers for list-and-pairwise training (Sec 5 of the paper).
//!
//! Every SGD step of CLAPF consumes a record `(u, i, k, j)` with
//! `i, k ∈ I_u⁺` observed and `j ∈ I \ I_u⁺` unobserved. How `k` and `j` are
//! drawn is the subject of the paper's Sec 5:
//!
//! * [`UniformSampler`] — everything uniform (the CLAPF baseline sampler),
//! * [`DssSampler`] — the paper's **Double Sampling Strategy**: rank-aware
//!   geometric draws for *both* `k` (from the observed items) and `j` (from
//!   the unobserved items), guided by a per-factor item ranking and the sign
//!   of the user's factor value (Steps 1–4 of Sec 5.2),
//! * the Fig. 4 ablations [`DssSampler::positive_only`] (rank-aware `k`,
//!   uniform `j`) and [`DssSampler::negative_only`] (uniform `k`, rank-aware
//!   `j`),
//! * [`DnsSampler`] — Dynamic Negative Sampling (Zhang et al. 2013), the
//!   adaptive baseline the paper positions DSS against.
//!
//! The crate also provides the primitive draws ([`sample_observed_pair`],
//! [`sample_unobserved_uniform`], [`Geometric`]) that BPR/MPR reuse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dns;
mod dss;
mod geometric;
mod stats;
mod uniform;

pub use dns::DnsSampler;
pub use dss::{DssConfig, DssMode, DssSampler};
pub use stats::DssStats;
pub use geometric::Geometric;
pub use uniform::{
    sample_observed_pair, sample_second_observed, sample_unobserved_uniform, UniformSampler,
};

use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::MfModel;
use rand::RngCore;

/// One training record for the CLAPF objective: the anchor observed item
/// `i`, the second observed item `k` and the unobserved item `j`
/// (`S = {i, k, j}` in the paper).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Triple {
    /// Anchor observed item (`i ∈ I_u⁺`), always drawn uniformly.
    pub i: ItemId,
    /// Second observed item (`k ∈ I_u⁺`).
    pub k: ItemId,
    /// Unobserved item (`j ∈ I \ I_u⁺`).
    pub j: ItemId,
}

/// A source of training triples.
///
/// `refresh` lets rank-aware samplers rebuild their ranking lists from the
/// current model; the trainer calls it on the cadence of the paper
/// (a handful of times per epoch, see `clapf-core`).
///
/// The SGD loop of the paper draws the `(u, i)` record uniformly over the
/// observed pairs and asks the sampler only for the completion `(k, j)`
/// ([`complete`](TripleSampler::complete)); [`sample`](TripleSampler::sample)
/// bundles the two steps for callers that want a whole triple for a given
/// user.
pub trait TripleSampler {
    /// Rebuilds any model-derived state (ranking lists). Uniform samplers
    /// ignore this.
    fn refresh(&mut self, model: &MfModel);

    /// Completes an anchor record `(u, i)` with the second observed item `k`
    /// and the unobserved item `j`. Returns `None` when no unobserved item
    /// exists for `u`.
    fn complete(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)>;

    /// Draws a full triple for user `u`, choosing the anchor `i` uniformly
    /// from the user's observed items. Returns `None` when the user has no
    /// observed items or every item is observed.
    fn sample(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        rng: &mut dyn RngCore,
    ) -> Option<Triple> {
        let items = data.items_of(u);
        if items.is_empty() {
            return None;
        }
        let i = items[rand::Rng::gen_range(&mut &mut *rng, 0..items.len())];
        let (k, j) = self.complete(data, model, u, i, rng)?;
        Some(Triple { i, k, j })
    }

    /// Human-readable name for reports ("Uniform", "DSS", …).
    fn name(&self) -> &'static str;

    /// A copy of this sampler, state included, for another Hogwild worker.
    /// `None`, the default, keeps every fit driven by this sampler serial.
    fn fork(&self) -> Option<Box<dyn TripleSampler + Send>> {
        None
    }
}

/// Forwards to the sampler behind a pointer, so trainers can hold a
/// borrowed sampler (`&mut S`) or a forked one (`Box<dyn …>`) alike.
macro_rules! forward_sampler {
    ($($ptr:ty),*) => {$(
        impl<T: TripleSampler + ?Sized> TripleSampler for $ptr {
            fn refresh(&mut self, model: &MfModel) {
                (**self).refresh(model)
            }

            fn complete(
                &mut self,
                data: &Interactions,
                model: &MfModel,
                u: UserId,
                i: ItemId,
                rng: &mut dyn RngCore,
            ) -> Option<(ItemId, ItemId)> {
                (**self).complete(data, model, u, i, rng)
            }

            fn sample(
                &mut self,
                data: &Interactions,
                model: &MfModel,
                u: UserId,
                rng: &mut dyn RngCore,
            ) -> Option<Triple> {
                (**self).sample(data, model, u, rng)
            }

            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn fork(&self) -> Option<Box<dyn TripleSampler + Send>> {
                (**self).fork()
            }
        }
    )*};
}

forward_sampler!(&mut T, Box<T>);
