//! The synthetic world every serve-side perf binary scores against: a
//! strided ratings CSV loaded through the same path a real `clapf fit
//! --save` takes, a randomly initialised factor model, and the bundle
//! that ties them together.

use clapf_data::loader::{load_ratings_reader, Loaded, Separator};
use clapf_data::synthetic::{generate, WorldConfig};
use clapf_data::Interactions;
use clapf_mf::{Init, MfModel};
use clapf_serve::ModelBundle;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;

/// Shape of one synthetic world. Each caller keeps its own numbers.
#[derive(Clone, Copy, Debug)]
pub struct Fixture {
    /// Users `u0..u{users}`.
    pub users: u32,
    /// Catalogue size; positives wrap modulo this.
    pub items: u32,
    /// Positives per user.
    pub per_user: u32,
    /// User `u`'s `t`-th positive is item `(u * stride.0 + t * stride.1) % items`.
    pub stride: (u32, u32),
    /// Factor dimension.
    pub dim: usize,
}

impl Fixture {
    /// The serve-load shape: 8 positives per user at strides (13, 97).
    pub fn new(users: u32, items: u32, dim: usize) -> Fixture {
        Fixture {
            users,
            items,
            per_user: 8,
            stride: (13, 97),
            dim,
        }
    }

    /// The ratings, as the CSV loader sees them (dense ids, `IdMap`).
    pub fn ratings(&self) -> Loaded {
        let mut csv = String::new();
        for u in 0..self.users {
            for t in 0..self.per_user {
                let i = (u * self.stride.0 + t * self.stride.1) % self.items;
                csv.push_str(&format!("u{u},i{i},5\n"));
            }
        }
        load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0)
            .expect("synthetic ratings load")
    }

    /// A model over `ratings`, initialised from `seed`.
    pub fn model(&self, ratings: &Loaded, seed: u64) -> MfModel {
        MfModel::new(
            ratings.interactions.n_users(),
            ratings.interactions.n_items(),
            self.dim,
            Init::default(),
            &mut SmallRng::seed_from_u64(seed),
        )
    }

    /// The bundle a server would load; `seed` picks the factors, so two
    /// seeds give two fingerprints over the same data.
    pub fn bundle(&self, label: &str, seed: u64) -> ModelBundle {
        let ratings = self.ratings();
        let model = self.model(&ratings, seed);
        ModelBundle::new(
            format!("{label} fixture d={}", self.dim),
            model,
            ratings.ids,
            &ratings.interactions,
        )
    }

    /// Saves [`bundle`](Fixture::bundle) to `path`.
    pub fn save(&self, label: &str, seed: u64, path: &Path) -> Result<ModelBundle, String> {
        let bundle = self.bundle(label, seed);
        bundle
            .save(path)
            .map_err(|e| format!("save {}: {e}", path.display()))?;
        Ok(bundle)
    }
}

/// The ML100K stand-in the training benches fit: 400 users × 700 items,
/// 20k pairs, world seed 1.
pub fn ml100k_standin() -> Interactions {
    let cfg = WorldConfig {
        n_users: 400,
        n_items: 700,
        target_pairs: 20_000,
        ..WorldConfig::default()
    };
    generate(&cfg, &mut SmallRng::seed_from_u64(1)).expect("synthetic world")
}

/// A per-process scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("temp dir {}: {e}", dir.display()));
    dir
}
