//! Saved model bundles: the fitted factors, the raw-id mapping and the
//! training pairs, as one binary model image.
//!
//! This module moved here from `clapf-cli` when the serving layer grew: a
//! bundle is the unit of deployment (`clapf fit --save` writes one,
//! `clapf serve` hot-swaps them), so it lives with the server. Loading
//! returns typed [`BundleError`]s rather than panicking — the hot-swap
//! watcher must be able to reject a truncated or corrupt bundle and keep
//! serving the previous model.
//!
//! # Bundle sections
//!
//! A bundle is a [`clapf_mf::image`] of kind `Bundle`: the image header and
//! model tables, then these sections (little-endian; "str" is a `u32` byte
//! length and UTF-8 bytes):
//!
//! | bytes | content |
//! |---|---|
//! | str | description |
//! | 4 + n_users strs | raw user ids: count (`u32`), then one str per dense id |
//! | 4 + n_items strs | raw item ids: count (`u32`), then one str per dense id |
//! | 4 (+ str) | metrics snapshot: `u32` 0 = absent, 1 = present and a str |
//! | 0–7 | zero padding to a multiple of 8 |
//! | … | training pairs: a `clapf-data` CSR section (`CLAPFCSR` header, offsets, both id arrays) |
//!
//! The file ends with the CSR section.

use clapf_data::loader::IdMap;
use clapf_data::Interactions;
use clapf_metrics::top_k_for_user;
use clapf_mf::image::{ImageKind, ImageReader, ImageWriter};
use clapf_mf::MfModel;
use std::path::Path;

/// Why a bundle failed to load. The serving layer maps these onto "reject
/// the reload, keep the live model" — none of them are fatal to a running
/// server.
#[derive(Debug)]
pub enum BundleError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// The bytes were read but are not a valid bundle image (truncated
    /// write, wrong file, a length that overruns the file).
    Parse(String),
    /// The image parsed but its contents are inconsistent (id map or
    /// training set sized unlike the model, training pairs out of range,
    /// non-finite parameters).
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
#[derive(Clone, Debug)]
pub struct ModelBundle {
    /// Description, e.g. `"CLAPF(λ=0.3)-MAP, d=20, 692100 steps"`.
    pub description: String,
    /// Fitted factors.
    pub model: MfModel,
    /// Raw ↔ dense id mapping of the training file.
    pub ids: IdMap,
    /// The training interactions, used to exclude seen items.
    pub train: Interactions,
    /// Final telemetry-registry snapshot of the training run (rendered
    /// JSON), when the fit was traced with `--metrics-out`. Absent in
    /// bundles from untraced runs.
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
            train: train.clone(),
            metrics: None,
        }
    }

    /// Attaches a rendered metrics snapshot to the bundle.
    pub fn with_metrics(mut self, metrics: Option<String>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The bundle as model-image bytes — exactly what [`save`](Self::save)
    /// writes. Deterministic: equal bundles encode to equal bytes.
    pub fn to_image(&self) -> Vec<u8> {
        let mut w = ImageWriter::new(ImageKind::Bundle, &self.model);
        w.str(&self.description);
        for raw in [self.ids.raw_users(), self.ids.raw_items()] {
            w.u32(raw.len() as u32);
            for id in raw {
                w.str(id);
            }
        }
        match &self.metrics {
            None => w.u32(0),
            Some(m) => {
                w.u32(1);
                w.str(m);
            }
        }
        w.align8();
        self.train
            .write_csr_to(w.bytes_mut())
            .expect("writing to a Vec cannot fail");
        w.finish()
    }

    /// Decodes **and validates** model-image bytes; see
    /// [`load`](Self::load) for the error contract.
    pub fn from_image(bytes: &[u8]) -> Result<Self, BundleError> {
        let bundle = Self::decode(bytes).map_err(BundleError::Parse)?;
        bundle.validate()?;
        Ok(bundle)
    }

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let (model, mut r) = ImageReader::open(bytes, ImageKind::Bundle)?;
        let description = r.str("description")?;
        let mut raw_ids = |side: &str| -> Result<Vec<String>, String> {
            let n = r.u32()?;
            (0..n).map(|_| r.str(side)).collect()
        };
        let (users, items) = (raw_ids("raw user id")?, raw_ids("raw item id")?);
        let metrics = match r.u32()? {
            0 => None,
            1 => Some(r.str("metrics snapshot")?),
            flag => return Err(format!("metrics flag {flag} is neither 0 nor 1")),
        };
        r.align8()?;
        let (train, used) = Interactions::decode_csr(r.rest()).map_err(|e| e.to_string())?;
        r.skip(used)?;
        r.finish()?;
        Ok(ModelBundle {
            description,
            model,
            ids: IdMap::from_raw(users, items)?,
            train,
            metrics,
        })
    }

    /// Writes the bundle's image to `path` **atomically** through
    /// [`clapf_faults::write_atomic`]: a crash (or an injected fault) at any
    /// instant leaves either the previous bundle or the new one on disk —
    /// never a torn file a watcher could try to serve.
    ///
    /// Failpoints: `bundle.save.write`, `bundle.save.sync`,
    /// `bundle.save.rename`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        clapf_faults::write_atomic(path, &self.to_image(), "bundle.save")
    }

    /// Loads **and validates** a bundle from `path`.
    ///
    /// Every failure mode is a typed [`BundleError`], never a panic: a
    /// half-written or foreign file (an old JSON bundle included) fails as
    /// [`BundleError::Parse`], a parseable image with inconsistent contents
    /// as [`BundleError::Invalid`]. The validated invariants are exactly
    /// the ones the accessors below rely on, so a loaded bundle cannot
    /// panic later.
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
        Ok((Self::from_image(&bytes)?, fingerprint64(&bytes)))
    }

    /// Checks internal consistency; see [`ModelBundle::load`].
    pub fn validate(&self) -> Result<(), BundleError> {
        self.model.validate().map_err(BundleError::Invalid)?;
        let (nu, ni) = (self.model.n_users(), self.model.n_items());
        if self.train.n_users() != nu || self.train.n_items() != ni {
            return Err(BundleError::Invalid(format!(
                "training set covers {} users × {} items but the model has {nu} × {ni}",
                self.train.n_users(),
                self.train.n_items()
            )));
        }
        self.train
            .validate_csr()
            .map_err(|e| BundleError::Invalid(format!("training pairs: {e}")))?;
        if self.train.n_pairs() == 0 {
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

    /// The training interactions (for exclusion at recommend time).
    pub fn train_interactions(&self) -> Interactions {
        self.train.clone()
    }

    /// Top-k raw item ids for a raw user id, excluding trained items.
    /// One-shot convenience; the server keeps a prebuilt
    /// [`ServingModel`](crate::ServingModel) instead.
    pub fn recommend_raw(&self, raw_user: &str, k: usize) -> Result<Vec<String>, String> {
        let u = self
            .ids
            .dense_user(raw_user)
            .ok_or_else(|| format!("user {raw_user:?} not present in the training data"))?;
        let ranked = top_k_for_user(&self.model, &self.train, u, k);
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
    use clapf_data::ItemId;
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
        assert!(loaded.train.pairs().eq(b.train.pairs()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundles_without_metrics_field_still_load() {
        // Untraced fits write no metrics snapshot; loading one must yield
        // `None`, not an error, and a snapshot that is present survives.
        let plain = ModelBundle::from_image(&bundle().to_image()).unwrap();
        assert_eq!(plain.metrics, None);
        let traced = bundle().with_metrics(Some("{}".into()));
        let loaded = ModelBundle::from_image(&traced.to_image()).unwrap();
        assert_eq!(loaded.metrics.as_deref(), Some("{}"));
    }

    #[test]
    fn save_load_save_is_byte_identical_with_and_without_metrics() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        let dir = temp_dir("resave");
        let (first, second) = (dir.join("a.bin"), dir.join("b.bin"));
        for metrics in [None, Some("{\"serve.requests\":3}".to_string())] {
            bundle().with_metrics(metrics).save(&first).unwrap();
            ModelBundle::load(&first).unwrap().save(&second).unwrap();
            assert_eq!(std::fs::read(&first).unwrap(), std::fs::read(&second).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_and_bad_header_or_length_is_a_parse_error() {
        let image = bundle().with_metrics(Some("{}".into())).to_image();
        for len in 0..image.len() {
            let err = ModelBundle::from_image(&image[..len]).unwrap_err();
            assert!(matches!(err, BundleError::Parse(_)), "prefix {len}: {err}");
        }
        let mut flipped = image.clone();
        flipped[3] ^= 0x20;
        let err = ModelBundle::from_image(&flipped).unwrap_err();
        assert!(err.to_string().contains("not a model image"), "{err}");
        // The description's length prefix follows the 32-byte header and
        // the 2×2 + 3×2 + 3 model floats.
        let mut overrun = image.clone();
        overrun[32 + 4 * 13..32 + 4 * 14].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ModelBundle::from_image(&overrun).unwrap_err();
        assert!(matches!(err, BundleError::Parse(ref m) if m.contains("overruns")), "{err}");
    }

    #[test]
    fn json_bundles_of_the_old_format_are_rejected_as_not_a_model_image() {
        // The shape `clapf fit --save` wrote before bundles became images.
        let json = r#"{"description":"test","model":{"n_users":1,"n_items":1,"dim":1,"user_factors":[0.5],"item_factors":[0.5],"item_bias":[0.0]},"ids":{"user_to_dense":{"u":0},"item_to_dense":{"i":0},"dense_to_user":["u"],"dense_to_item":["i"]},"train_pairs":[[0,0]],"metrics":null}"#;
        let err = ModelBundle::from_image(json.as_bytes()).unwrap_err();
        assert!(matches!(err, BundleError::Parse(_)), "{err}");
        assert!(err.to_string().contains("not a model image"), "{err}");
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
        // Simulate a half-written file: chop the image in the middle.
        let body = std::fs::read(&path).unwrap();
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
        // The image ends with the item→user array; its last entry is the
        // last user of the last item's row, so 999 keeps the row sorted
        // and only the range check can catch it.
        let mut image = bundle().to_image();
        let end = image.len();
        image[end - 4..].copy_from_slice(&999u32.to_le_bytes());
        let err = ModelBundle::from_image(&image).unwrap_err();
        assert!(matches!(err, BundleError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn corrupt_model_block_is_invalid_on_load() {
        let _guard = clapf_faults::exclusive(); // keeps other tests' bundle.* faults out
        // A well-formed image whose factor table holds a NaN: the decoder
        // cannot catch this — only validation can.
        let b = bundle();
        let dir = temp_dir("invalid");
        let path = dir.join("m.json");
        b.save(&path).unwrap();
        let mut body = std::fs::read(&path).unwrap();
        // The first user factor sits right after the 32-byte header.
        body[32..36].copy_from_slice(&f32::NAN.to_le_bytes());
        std::fs::write(&path, body).unwrap();
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, BundleError::Invalid(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
