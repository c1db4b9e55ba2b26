//! The Hogwild shared-model view: lock-free multi-threaded SGD.
//!
//! [`SharedMfModel`] wraps an [`MfModel`] in an [`UnsafeCell`] and lets
//! many worker threads read scores and apply SGD updates to the *same*
//! parameter buffers without locks or atomics, in the style of Hogwild!
//! (Recht et al., NIPS 2011). This is the one module in the workspace
//! allowed to use `unsafe`; everything it exposes is a safe API whose
//! concurrency contract is documented here once:
//!
//! # Concurrency contract
//!
//! * Each SGD step touches one user row and at most three item rows plus
//!   their biases. With thousands of rows and a handful of threads,
//!   collisions are rare and — per the Hogwild argument — *benign*: a
//!   lost or torn `f32` update perturbs one coordinate by a sub-step
//!   amount, which SGD's own noise dwarfs.
//! * Readers ([`view`](SharedMfModel::view), scoring, sampler refresh)
//!   may observe a row mid-update. That yields a slightly stale score,
//!   never memory unsafety in practice: the buffers are allocated once,
//!   never grown or freed while workers run, and all access stays in
//!   bounds.
//! * Writers go through raw pointers ([`sgd_user`](SharedMfModel::sgd_user)
//!   and friends); no `&mut MfModel` is ever formed while other threads
//!   hold views, keeping the aliasing surface as small as stable Rust
//!   allows for this pattern.
//! * Cross-thread *ordering* is the caller's job: the training driver
//!   joins every epoch's workers before the next refresh, which gives that
//!   refresh a coherent snapshot.
//!
//! Unsynchronized `f32` reads/writes are the deliberate, documented
//! trade-off of Hogwild training: plain loads and stores keep the hot
//! loop identical to the serial path (and vectorizable), where per-lane
//! atomics would serialize it.

#![allow(unsafe_code)]

use crate::model::MfModel;
use clapf_data::{ItemId, UserId};
use std::cell::UnsafeCell;

/// A `Sync` view of one [`MfModel`] shared by Hogwild worker threads.
///
/// Construct with [`new`](SharedMfModel::new), hand `&SharedMfModel` to
/// each worker, and recover the trained model with
/// [`into_inner`](SharedMfModel::into_inner). See the module docs for the
/// concurrency contract.
pub struct SharedMfModel {
    cell: UnsafeCell<MfModel>,
    users: *mut f32,
    items: *mut f32,
    bias: *mut f32,
    dim: usize,
    n_users: u32,
    n_items: u32,
}

// SAFETY: the raw pointers alias heap buffers owned by the MfModel inside
// `cell`, so sending the wrapper moves ownership of everything together.
unsafe impl Send for SharedMfModel {}
// SAFETY: shared mutation through `&self` is the point of this type; the
// module-level contract explains why the races it admits are benign.
unsafe impl Sync for SharedMfModel {}

impl SharedMfModel {
    /// Wraps a model for shared training.
    pub fn new(model: MfModel) -> Self {
        let cell = UnsafeCell::new(model);
        // SAFETY: we hold the only reference during construction.
        let m = unsafe { &mut *cell.get() };
        let dim = m.dim();
        let n_users = m.n_users();
        let n_items = m.n_items();
        let (users, items, bias) = m.raw_params();
        SharedMfModel {
            cell,
            users,
            items,
            bias,
            dim,
            n_users,
            n_items,
        }
    }

    /// Recovers the trained model. Consumes the wrapper, so all worker
    /// borrows have necessarily ended.
    pub fn into_inner(self) -> MfModel {
        self.cell.into_inner()
    }

    /// A shared read view for scoring, sampling and checkpoints.
    ///
    /// While workers are mid-epoch the view may observe rows that another
    /// thread is updating (see the module contract); between epochs, once
    /// the workers have joined, it is a coherent snapshot.
    #[inline]
    pub fn view(&self) -> &MfModel {
        // SAFETY: MfModel's own methods never mutate through &self, and
        // writers in this module go through raw pointers rather than
        // forming a conflicting `&mut MfModel`.
        unsafe { &*self.cell.get() }
    }

    /// Latent dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// SGD step on a user row: `U_u += step · grad − decay · U_u`.
    ///
    /// Bit-for-bit the same arithmetic and update order as
    /// [`MfModel::sgd_user`] — both route through the elementwise
    /// [`crate::simd::axpy_update`] kernel family — so a single-threaded
    /// run through this view reproduces the serial trainer exactly. The
    /// vector path widens torn writes from one `f32` to one 32-byte store;
    /// the module contract's benign-race argument is unchanged (lane `t`
    /// still only touches element `t`).
    #[inline]
    pub fn sgd_user(&self, u: UserId, step: f32, grad: &[f32], decay: f32) {
        debug_assert!(u.index() < self.n_users as usize);
        debug_assert_eq!(grad.len(), self.dim);
        // SAFETY: row `u` lies fully inside the user-factor buffer
        // (checked above in debug builds; guaranteed by construction for
        // any UserId valid for this model). Races with other workers on
        // these plain stores are the documented Hogwild trade-off.
        unsafe {
            crate::simd::axpy_update_raw(self.users.add(u.index() * self.dim), grad, step, decay);
        }
    }

    /// SGD step on an item row: `V_i += step · grad − decay · V_i`.
    /// Same arithmetic as [`MfModel::sgd_item`].
    #[inline]
    pub fn sgd_item(&self, i: ItemId, step: f32, grad: &[f32], decay: f32) {
        debug_assert!(i.index() < self.n_items as usize);
        debug_assert_eq!(grad.len(), self.dim);
        // SAFETY: as in `sgd_user`, for the item-factor buffer.
        unsafe {
            crate::simd::axpy_update_raw(self.items.add(i.index() * self.dim), grad, step, decay);
        }
    }

    /// SGD step on an item bias: `b_i += step · grad − decay · b_i`.
    /// Same arithmetic as [`MfModel::sgd_bias`].
    #[inline]
    pub fn sgd_bias(&self, i: ItemId, step: f32, grad: f32, decay: f32) {
        debug_assert!(i.index() < self.n_items as usize);
        // SAFETY: index `i` is in bounds for the bias buffer.
        unsafe {
            let p = self.bias.add(i.index());
            let w = p.read();
            p.write(w + (step * grad - decay * w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> MfModel {
        let mut rng = SmallRng::seed_from_u64(seed);
        MfModel::new(30, 40, 8, Init::SmallUniform { scale: 0.1 }, &mut rng)
    }

    /// The shared update kernels must be bit-identical to the &mut ones.
    #[test]
    fn shared_updates_match_serial_updates() {
        let mut serial = model(7);
        let shared = SharedMfModel::new(model(7));

        let grad = [0.3f32, -0.2, 0.05, 0.0, 1.5, -1.0, 0.25, 0.125];
        serial.sgd_user(UserId(3), 0.05, &grad, 0.001);
        serial.sgd_item(ItemId(11), -0.07, &grad, 0.002);
        serial.sgd_bias(ItemId(11), 0.05, -0.6, 0.003);
        shared.sgd_user(UserId(3), 0.05, &grad, 0.001);
        shared.sgd_item(ItemId(11), -0.07, &grad, 0.002);
        shared.sgd_bias(ItemId(11), 0.05, -0.6, 0.003);

        let trained = shared.into_inner();
        assert_eq!(serial.user(UserId(3)), trained.user(UserId(3)));
        assert_eq!(serial.item(ItemId(11)), trained.item(ItemId(11)));
        assert_eq!(
            serial.bias(ItemId(11)).to_bits(),
            trained.bias(ItemId(11)).to_bits()
        );
    }

    #[test]
    fn view_reflects_updates() {
        let shared = SharedMfModel::new(model(9));
        let before = shared.view().score(UserId(0), ItemId(0));
        shared.sgd_bias(ItemId(0), 1.0, 1.0, 0.0);
        let after = shared.view().score(UserId(0), ItemId(0));
        assert!((after - before - 1.0).abs() < 1e-6);
    }

    /// Many threads hammering disjoint rows must produce exactly the
    /// updates each thread applied (no locks, no losses when disjoint).
    #[test]
    fn concurrent_disjoint_updates_all_land()
    {
        let shared = SharedMfModel::new({
            let mut rng = SmallRng::seed_from_u64(1);
            MfModel::new(8, 8, 4, Init::Zeros, &mut rng)
        });
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let shared = &shared;
                scope.spawn(move || {
                    let grad = [1.0f32; 4];
                    for _ in 0..1000 {
                        shared.sgd_user(UserId(t), 0.001, &grad, 0.0);
                        shared.sgd_bias(ItemId(t), 0.001, 1.0, 0.0);
                    }
                });
            }
        });
        let m = shared.into_inner();
        for t in 0..8u32 {
            for &w in m.user(UserId(t)) {
                assert!((w - 1.0).abs() < 1e-4, "user {t}: {w}");
            }
            assert!((m.bias(ItemId(t)) - 1.0).abs() < 1e-4);
        }
    }
}
