//! The live model a server answers from, and the slot it hot-swaps through.
//!
//! Hot-swap protocol (see DESIGN.md §11):
//!
//! 1. A request handler pins the current [`ServingModel`] with one
//!    [`ModelSlot::current`] call and uses *its* `generation` for every
//!    cache interaction. Model, id map, training set and generation travel
//!    together in one `Arc`, so a handler can never mix artifacts from two
//!    bundles — no torn model, ever.
//! 2. The reloader (serialized by a mutex in the server) loads and
//!    validates the new bundle off to the side. Failures leave the slot
//!    untouched; the old model keeps serving.
//! 3. On success it swaps the slot *first*, then bumps the cache
//!    generation. Handlers that pinned the old model keep reading
//!    old-generation cache entries (consistent with the model they hold);
//!    handlers that pin the new model find only fresh entries because the
//!    new generation starts empty and stale `put`s are discarded.

use crate::bundle::{BundleError, ModelBundle};
use clapf_data::UserId;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// A validated bundle plus everything precomputed for request serving.
pub struct ServingModel {
    /// The loaded bundle (factors, id map, description, and the training
    /// interactions handlers exclude seen items with).
    pub bundle: ModelBundle,
    /// The cache generation this model was published under.
    pub generation: u64,
    /// FNV-1a hash of the bundle file bytes this model was loaded from
    /// (see [`crate::bundle::fingerprint64`]). Zero for models built in
    /// memory rather than loaded from disk.
    pub fingerprint: u64,
}

impl ServingModel {
    /// Loads and validates the bundle at `path`, stamping it `generation`.
    pub fn load(path: &Path, generation: u64) -> Result<Self, BundleError> {
        let (bundle, fingerprint) = ModelBundle::load_fingerprinted(path)?;
        Ok(ServingModel {
            bundle,
            generation,
            fingerprint,
        })
    }

    /// The fingerprint as the 16-hex-digit string the fleet protocol and
    /// `/healthz` report.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// Dense id for a raw user id, if the user was in the training data.
    pub fn dense_user(&self, raw: &str) -> Option<UserId> {
        self.bundle.ids.dense_user(raw)
    }

    /// Raw id for a dense item id. Panics only on ids outside the model,
    /// which a top-k cut never produces.
    pub fn raw_item(&self, dense: u32) -> &str {
        self.bundle
            .ids
            .raw_item(clapf_data::ItemId(dense))
            .expect("top-k item ids are in range")
    }
}

/// The atomically swappable pointer to the live model.
///
/// `RwLock<Arc<_>>` rather than bare atomics: the critical section is two
/// pointer copies, readers never block each other, and it stays entirely in
/// safe Rust (this workspace denies `unsafe` outside one audited module).
pub struct ModelSlot {
    slot: RwLock<Arc<ServingModel>>,
}

impl ModelSlot {
    /// Creates a slot holding `model`.
    pub fn new(model: ServingModel) -> Self {
        ModelSlot {
            slot: RwLock::new(Arc::new(model)),
        }
    }

    /// Pins the current model. The returned `Arc` stays valid (and
    /// internally consistent) for as long as the caller holds it, even
    /// across any number of swaps.
    pub fn current(&self) -> Arc<ServingModel> {
        Arc::clone(&self.slot.read().expect("model slot poisoned"))
    }

    /// Publishes `model`, returning the one it replaced.
    pub fn swap(&self, model: ServingModel) -> Arc<ServingModel> {
        let mut slot = self.slot.write().expect("model slot poisoned");
        std::mem::replace(&mut *slot, Arc::new(model))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use clapf_data::loader::{load_ratings_reader, Separator};
    use clapf_data::ItemId;
    use clapf_mf::{Init, MfModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A two-user, three-item model whose item biases are `bias`.
    pub(crate) fn serving_model(bias: [f32; 3], generation: u64) -> ServingModel {
        let csv = "u1,a,5\nu1,b,5\nu2,b,4\nu2,c,5\n";
        let loaded =
            load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = MfModel::new(
            loaded.interactions.n_users(),
            loaded.interactions.n_items(),
            2,
            Init::Zeros,
            &mut rng,
        );
        for (idx, b) in bias.iter().enumerate() {
            *model.bias_mut(ItemId(idx as u32)) = *b;
        }
        let bundle = ModelBundle::new("test".into(), model, loaded.ids, &loaded.interactions);
        ServingModel {
            bundle,
            generation,
            fingerprint: 0,
        }
    }

    #[test]
    fn slot_swap_publishes_and_old_pins_stay_valid() {
        let slot = ModelSlot::new(serving_model([0.1, 0.5, 0.9], 0));
        let pinned = slot.current();
        assert_eq!(pinned.generation, 0);
        let old = slot.swap(serving_model([0.9, 0.5, 0.1], 1));
        assert_eq!(old.generation, 0);
        // The pre-swap pin still reads the old model coherently.
        assert_eq!(pinned.generation, 0);
        let u = pinned.dense_user("u1").unwrap();
        let top = clapf_metrics::top_k_for_user(&pinned.bundle.model, &pinned.bundle.train, u, 10);
        // u1 trained on {a=0, b=1}; only c=2 is recommendable.
        assert_eq!(top.items, vec![ItemId(2)]);
        assert_eq!(pinned.raw_item(2), "c");
        // New pins see the new model.
        assert_eq!(slot.current().generation, 1);
    }
}
