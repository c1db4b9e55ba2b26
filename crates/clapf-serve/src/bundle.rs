//! Saved model bundles: the fitted factors plus the raw-id mapping, as one
//! JSON document.
//!
//! This module moved here from `clapf-cli` when the serving layer grew: a
//! bundle is the unit of deployment (`clapf fit --save` writes one,
//! `clapf serve` hot-swaps them), so it lives with the server. Loading
//! returns typed [`BundleError`]s rather than panicking — the hot-swap
//! watcher must be able to reject a truncated or corrupt bundle and keep
//! serving the previous model.

use clapf_data::loader::IdMap;
use clapf_data::{Interactions, ItemId, UserId};
use clapf_metrics::top_k_for_user;
use clapf_mf::MfModel;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Why a bundle failed to load. The serving layer maps these onto "reject
/// the reload, keep the live model" — none of them are fatal to a running
/// server.
#[derive(Debug)]
pub enum BundleError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The bytes were read but are not a valid bundle document (truncated
    /// write, wrong file, JSON corruption).
    Parse(String),
    /// The document parsed but its contents are inconsistent (factor block
    /// sizes disagree with the claimed dimensions, training pairs out of
    /// range, non-finite parameters).
    Invalid(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle I/O: {e}"),
            BundleError::Parse(e) => write!(f, "bundle parse: {e}"),
            BundleError::Invalid(e) => write!(f, "bundle invalid: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

/// Stable 64-bit FNV-1a hash of `bytes` — the bundle **fingerprint** the
/// fleet rollout protocol compares across replicas. Hashing the raw file
/// bytes (not the parsed struct) makes the fingerprint sensitive to any
/// re-serialization drift: two replicas agree iff they loaded identical
/// files.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything recommendation serving needs: the factors, how raw ids map to
/// dense ids, which items each user trained on (to exclude them), and a
/// human-readable description of the training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Description, e.g. `"CLAPF(λ=0.3)-MAP, d=20, 692100 steps"`.
    pub description: String,
    /// Fitted factors.
    pub model: MfModel,
    /// Raw ↔ dense id mapping of the training file.
    pub ids: IdMap,
    /// Dense training pairs (`user, item`), used to exclude seen items.
    pub train_pairs: Vec<(u32, u32)>,
    /// Final telemetry-registry snapshot of the training run (rendered
    /// JSON), when the fit was traced with `--metrics-out`. Absent in
    /// bundles from untraced runs and from older versions of this tool.
    pub metrics: Option<String>,
}

impl ModelBundle {
    /// Assembles a bundle from a fit.
    pub fn new(
        description: String,
        model: MfModel,
        ids: IdMap,
        train: &Interactions,
    ) -> Self {
        ModelBundle {
            description,
            model,
            ids,
            train_pairs: train.pairs().map(|(u, i)| (u.0, i.0)).collect(),
            metrics: None,
        }
    }

    /// Attaches a rendered metrics snapshot to the bundle.
    pub fn with_metrics(mut self, metrics: Option<String>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Serializes to JSON at `path`, **atomically**: write to `<path>.tmp`,
    /// `fsync`, rename over `path`, `fsync` the directory. A crash (or an
    /// injected fault) at any instant leaves either the previous bundle or
    /// the new one on disk — never a torn file a watcher could try to serve.
    ///
    /// Failpoints: `bundle.save.write`, `bundle.save.sync`,
    /// `bundle.save.rename`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let body = serde_json::to_string(self).expect("bundle serializes");
        let tmp = std::path::PathBuf::from(format!("{}.tmp", path.display()));
        let result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            clapf_faults::write_all("bundle.save.write", &mut f, body.as_bytes())?;
            clapf_faults::check("bundle.save.sync")?;
            f.sync_all()?;
            drop(f);
            clapf_faults::check("bundle.save.rename")?;
            std::fs::rename(&tmp, path)?;
            // Persist the rename itself; best-effort (the data is durable).
            if let Some(dir) = path.parent() {
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
            }
            Ok(())
        })();
        if result.is_err() {
            // A failed save must not leave `.tmp` debris behind.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads **and validates** a bundle from `path`.
    ///
    /// Every failure mode is a typed [`BundleError`], never a panic: a
    /// half-written file fails as [`BundleError::Parse`], a parseable file
    /// with inconsistent contents as [`BundleError::Invalid`]. The validated
    /// invariants are exactly the ones the accessors below rely on, so a
    /// loaded bundle cannot panic later.
    ///
    /// Failpoint: `bundle.load.read` (I/O errors at read time).
    pub fn load(path: &Path) -> Result<Self, BundleError> {
        Self::load_fingerprinted(path).map(|(b, _)| b)
    }

    /// [`load`](Self::load), also returning the [`fingerprint64`] of the
    /// raw file bytes — the identity the fleet rollout protocol verifies
    /// before flipping generations across replicas.
    pub fn load_fingerprinted(path: &Path) -> Result<(Self, u64), BundleError> {
        clapf_faults::check("bundle.load.read").map_err(BundleError::Io)?;
        let bytes = std::fs::read(path).map_err(BundleError::Io)?;
        let fingerprint = fingerprint64(&bytes);
        let body = String::from_utf8(bytes)
            .map_err(|_| BundleError::Parse("bundle is not valid UTF-8".into()))?;
        let bundle: ModelBundle =
            serde_json::from_str(&body).map_err(|e| BundleError::Parse(e.to_string()))?;
        bundle.validate()?;
        Ok((bundle, fingerprint))
    }

    /// Checks internal consistency; see [`ModelBundle::load`].
    pub fn validate(&self) -> Result<(), BundleError> {
        self.model.validate().map_err(BundleError::Invalid)?;
        let (nu, ni) = (self.model.n_users(), self.model.n_items());
        for &(u, i) in &self.train_pairs {
            if u >= nu || i >= ni {
                return Err(BundleError::Invalid(format!(
                    "train pair ({u}, {i}) out of range for {nu} users × {ni} items"
                )));
            }
        }
        if self.train_pairs.is_empty() {
            return Err(BundleError::Invalid("bundle has no training pairs".into()));
        }
        if self.ids.n_users() != nu || self.ids.n_items() != ni {
            return Err(BundleError::Invalid(format!(
                "id map covers {} users × {} items but the model has {nu} × {ni}",
                self.ids.n_users(),
                self.ids.n_items()
            )));
        }
        Ok(())
    }

    /// Rebuilds the training interactions (for exclusion at recommend time).
    /// Cannot fail on a [`load`](ModelBundle::load)-validated bundle.
    pub fn train_interactions(&self) -> Interactions {
        let mut b = clapf_data::InteractionsBuilder::new(
            self.model.n_users(),
            self.model.n_items(),
        );
        for &(u, i) in &self.train_pairs {
            b.push(UserId(u), ItemId(i)).expect("bundle pairs validated in range");
        }
        b.build().expect("bundle has training pairs")
    }

    /// Top-k raw item ids for a raw user id, excluding trained items.
    /// One-shot convenience (rebuilds the training set per call); the
    /// server keeps a prebuilt [`ServingModel`](crate::ServingModel)
    /// instead.
    pub fn recommend_raw(&self, raw_user: &str, k: usize) -> Result<Vec<String>, String> {
        let u = self
            .ids
            .dense_user(raw_user)
            .ok_or_else(|| format!("user {raw_user:?} not present in the training data"))?;
        let train = self.train_interactions();
        let ranked = top_k_for_user(&self.model, &train, u, k);
        Ok(ranked
            .items
            .iter()
            .map(|&i| {
                self.ids
                    .raw_item(i)
                    .unwrap_or("<unknown>")
                    .to_string()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::loader::{load_ratings_reader, Separator};
    use clapf_mf::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn bundle() -> ModelBundle {
        let csv = "u1,a,5\nu1,b,5\nu2,b,4\nu2,c,5\n";
        let loaded = load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = MfModel::new(
            loaded.interactions.n_users(),
            loaded.interactions.n_items(),
            2,
            Init::Zeros,
            &mut rng,
        );
        // Deterministic scores: item "c" (dense 2) best, then "b", then "a".
        for (idx, bias) in [(0u32, 0.1f32), (1, 0.5), (2, 0.9)] {
            *model.bias_mut(ItemId(idx)) = bias;
        }
        ModelBundle::new(
            "test".into(),
            model,
            loaded.ids,
            &loaded.interactions,
        )
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clapf-serve-bundle-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trips_through_disk() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        let b = bundle();
        let dir = temp_dir("roundtrip");
        let path = dir.join("m.json");
        b.save(&path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.description, "test");
        assert_eq!(loaded.train_pairs, b.train_pairs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundles_without_metrics_field_still_load() {
        // Bundles written before the telemetry layer have no `metrics`
        // key; loading one must yield `None`, not an error.
        let b = bundle().with_metrics(Some("{}".into()));
        let text = serde_json::to_string(&b).unwrap();
        let mut v: serde::Value = serde_json::from_str(&text).unwrap();
        if let serde::Value::Map(fields) = &mut v {
            fields.retain(|(k, _)| k != "metrics");
        }
        let stripped = serde_json::to_string(&v).unwrap();
        let loaded: ModelBundle = serde_json::from_str(&stripped).unwrap();
        assert_eq!(loaded.metrics, None);
    }

    #[test]
    fn interrupted_save_leaves_the_previous_bundle_intact() {
        // The atomic-save contract: a save that dies at any stage (torn
        // write, failed fsync, failed rename) leaves the previous bundle
        // loadable and no `.tmp` debris.
        let _guard = clapf_faults::exclusive();
        let b = bundle();
        let dir = temp_dir("atomic");
        let path = dir.join("m.json");
        b.save(&path).unwrap();

        let mut updated = bundle();
        updated.description = "updated".into();
        for (point, fault) in [
            ("bundle.save.write", clapf_faults::Fault::Torn { keep: 32 }),
            ("bundle.save.sync", clapf_faults::Fault::Io),
            ("bundle.save.rename", clapf_faults::Fault::Io),
        ] {
            clapf_faults::arm(point, fault);
            assert!(updated.save(&path).is_err(), "{point} should fail save");
            assert!(clapf_faults::hits(point) >= 1);
            clapf_faults::disarm(point);
            let survivor = ModelBundle::load(&path).expect("old bundle survives");
            assert_eq!(survivor.description, "test", "{point} tore the bundle");
            assert!(
                !std::path::PathBuf::from(format!("{}.tmp", path.display())).exists(),
                "{point} left tmp debris"
            );
        }
        updated.save(&path).unwrap();
        assert_eq!(ModelBundle::load(&path).unwrap().description, "updated");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_read_failpoint_is_an_io_error() {
        let _guard = clapf_faults::exclusive();
        let b = bundle();
        let dir = temp_dir("load-fault");
        let path = dir.join("m.json");
        b.save(&path).unwrap();
        clapf_faults::arm_nth("bundle.load.read", clapf_faults::Fault::Io, 0, Some(1));
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, BundleError::Io(_)), "{err}");
        // The fault was one-shot: the next load succeeds.
        assert!(ModelBundle::load(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_file_bytes_not_identity() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        let b = bundle();
        let dir = temp_dir("fingerprint");
        let (p1, p2) = (dir.join("a.json"), dir.join("b.json"));
        b.save(&p1).unwrap();
        b.save(&p2).unwrap();
        let (_, f1) = ModelBundle::load_fingerprinted(&p1).unwrap();
        let (_, f2) = ModelBundle::load_fingerprinted(&p2).unwrap();
        assert_eq!(f1, f2, "identical bytes must fingerprint identically");

        let mut changed = bundle();
        changed.description = "changed".into();
        changed.save(&p2).unwrap();
        let (_, f3) = ModelBundle::load_fingerprinted(&p2).unwrap();
        assert_ne!(f1, f3, "different bytes must fingerprint differently");
        assert_eq!(f1, fingerprint64(&std::fs::read(&p1).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recommends_unseen_items_by_score() {
        let b = bundle();
        // u1 trained on {a, b}; best unseen is c.
        let recs = b.recommend_raw("u1", 2).unwrap();
        assert_eq!(recs, vec!["c".to_string()]);
        // u2 trained on {b, c}; only a remains.
        let recs = b.recommend_raw("u2", 5).unwrap();
        assert_eq!(recs, vec!["a".to_string()]);
    }

    #[test]
    fn unknown_user_is_an_error() {
        let b = bundle();
        let err = b.recommend_raw("nobody", 3).unwrap_err();
        assert!(err.contains("nobody"));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelBundle::load(Path::new("/nonexistent/bundle.json")).unwrap_err();
        assert!(matches!(err, BundleError::Io(_)), "{err}");
    }

    #[test]
    fn truncated_file_is_parse_error_not_panic() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        let b = bundle();
        let dir = temp_dir("truncated");
        let path = dir.join("m.json");
        b.save(&path).unwrap();
        // Simulate a half-written file: chop the document in the middle.
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &body[..body.len() / 2]).unwrap();
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, BundleError::Parse(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_bytes_are_parse_error() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        let dir = temp_dir("garbage");
        let path = dir.join("m.json");
        std::fs::write(&path, b"\x00\xffnot json at all").unwrap();
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, BundleError::Parse(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_pairs_are_invalid() {
        let mut b = bundle();
        b.train_pairs.push((999, 0));
        let err = b.validate().unwrap_err();
        assert!(matches!(err, BundleError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn corrupt_model_block_is_invalid_on_load() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        // Parseable JSON whose factor block disagrees with the claimed
        // shape: `load` must reject it as Invalid (the serde layer cannot
        // catch this — only validation can).
        let b = bundle();
        let dir = temp_dir("invalid");
        let path = dir.join("m.json");
        b.save(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        // The test model has 2 users; claim 3 without adding factors.
        let corrupted = body.replace("\"n_users\":2", "\"n_users\":3");
        assert_ne!(corrupted, body, "fixture must contain the n_users field");
        std::fs::write(&path, corrupted).unwrap();
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, BundleError::Invalid(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
