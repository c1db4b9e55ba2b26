//! Crash-safe training checkpoints.
//!
//! A [`Checkpoint`] captures everything the serial trainer needs to resume
//! bit-identically: the model parameters, the SGD RNG state, the epoch
//! count, and a fingerprint of the run configuration. Checkpoints are taken
//! at **epoch boundaries** (sampler-refresh edges) on purpose: rank-aware
//! samplers rebuild their state deterministically from the model at the top
//! of each epoch, so the sampler itself never needs to be serialized.
//!
//! A checkpoint file is a [`clapf_mf::image`] of kind `Checkpoint`: the
//! image header and model tables, then this section (little-endian; "str"
//! is a `u32` byte length and UTF-8 bytes):
//!
//! | bytes | content |
//! |---|---|
//! | str | run fingerprint |
//! | 0–7 | zero padding to a multiple of 8 |
//! | 8 | epoch (`u64`) |
//! | 8 | steps done (`u64`) |
//! | 32 | xoshiro256++ RNG state (4 × `u64`) |
//! | 4 | `lr_scale` (`f32`) |
//! | 4 | retries (`u32`) |
//!
//! The image header carries the format version; a file of another version
//! or kind is a [`CheckpointError::Parse`]. File names keep the historical
//! `ckpt-NNNNNNNN.json` suffix, though the content is binary.
//!
//! Writes are atomic ([`clapf_faults::write_atomic`]: `<name>.tmp`,
//! `fsync`, `rename`, then `fsync` the directory), so a crash at any
//! instant leaves either the previous checkpoint or the new one, never a
//! torn file. Torn or corrupt files (from crashes of *other* writers, or
//! disk trouble) are skipped by [`latest`], which falls back to the newest
//! checkpoint that still loads.
//!
//! Failpoints (`checkpoint.save.write`, `checkpoint.save.sync`,
//! `checkpoint.save.rename`, `checkpoint.load.read`) let tests inject
//! crashes at every stage of the protocol; see `clapf-faults`.

use clapf_mf::image::{ImageKind, ImageReader, ImageWriter};
use clapf_mf::MfModel;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file was read but is not a valid checkpoint (torn write, wrong
    /// version or kind, non-finite model parameters).
    Parse(String),
    /// A checkpoint loaded cleanly but was written by a run with a
    /// different configuration — resuming from it would silently train a
    /// different model.
    Mismatch {
        /// Fingerprint of the run asking to resume.
        expected: String,
        /// Fingerprint recorded in the checkpoint.
        found: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse: {e}"),
            CheckpointError::Mismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different run: expected fingerprint \
                 `{expected}`, found `{found}`"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A resumable snapshot of a serial training run, taken at an epoch edge.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Fingerprint of the configuration + data shape that produced this
    /// run; resume refuses checkpoints with a different fingerprint.
    pub fingerprint: String,
    /// Completed epochs (sampler-refresh intervals).
    pub epoch: usize,
    /// SGD steps completed.
    pub steps_done: usize,
    /// Full xoshiro256++ state of the training RNG at the epoch edge, as
    /// `rand::rngs::SmallRng::from_state` takes it.
    pub rng_state: [u64; 4],
    /// Current learning-rate scale: 1.0 normally, halved per divergence
    /// recovery.
    pub lr_scale: f32,
    /// Divergence recoveries consumed so far.
    pub retries: u32,
    /// The model parameters at the epoch edge.
    pub model: MfModel,
}

impl Checkpoint {
    /// The checkpoint as model-image bytes — exactly what [`save`] writes.
    pub fn to_image(&self) -> Vec<u8> {
        let mut w = ImageWriter::new(ImageKind::Checkpoint, &self.model);
        w.str(&self.fingerprint);
        w.align8();
        w.u64(self.epoch as u64);
        w.u64(self.steps_done as u64);
        for word in self.rng_state {
            w.u64(word);
        }
        w.u32(self.lr_scale.to_bits());
        w.u32(self.retries);
        w.finish()
    }

    /// Decodes and validates model-image bytes; every failure is a
    /// [`CheckpointError::Parse`].
    pub fn from_image(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let decode = || -> Result<Checkpoint, String> {
            let (model, mut r) = ImageReader::open(bytes, ImageKind::Checkpoint)?;
            let fingerprint = r.str("run fingerprint")?;
            r.align8()?;
            let (epoch, steps_done) = (r.u64()? as usize, r.u64()? as usize);
            let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
            let (lr_scale, retries) = (f32::from_bits(r.u32()?), r.u32()?);
            r.finish()?;
            model.validate()?;
            Ok(Checkpoint {
                fingerprint,
                epoch,
                steps_done,
                rng_state,
                lr_scale,
                retries,
                model,
            })
        };
        decode().map_err(CheckpointError::Parse)
    }
}

/// Where and how often a resumable fit checkpoints, and how it reacts to
/// divergence.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory the checkpoints live in (created on demand).
    pub dir: PathBuf,
    /// Checkpoint every this many epochs (`0` resolves to `1`). A fresh
    /// run also checkpoints its initial state (epoch 0) so divergence in
    /// the very first epoch has a rollback target.
    pub every_epochs: usize,
    /// How many most-recent checkpoints to keep (`0` resolves to `1`).
    pub keep: usize,
    /// Resume from the newest valid checkpoint when one exists; `false`
    /// clears the directory and starts fresh.
    pub resume: bool,
    /// Divergence recoveries allowed before the run aborts (total across
    /// the fit, not per epoch).
    pub max_retries: u32,
    /// Learning-rate multiplier applied per divergence recovery.
    pub lr_backoff: f32,
}

impl CheckpointConfig {
    /// Defaults: checkpoint every epoch, keep the last 2, resume if
    /// possible, up to 3 divergence recoveries at half the learning rate
    /// each.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every_epochs: 1,
            keep: 2,
            resume: true,
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }

    pub(crate) fn resolve_every(&self) -> usize {
        self.every_epochs.max(1)
    }

    fn resolve_keep(&self) -> usize {
        self.keep.max(1)
    }
}

fn file_name(epoch: usize) -> String {
    format!("ckpt-{epoch:08}.json")
}

/// The epoch encoded in a checkpoint file name, if it is one.
fn parse_epoch(name: &str) -> Option<usize> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Atomically writes `ckpt` into `cfg.dir` and prunes old checkpoints,
/// keeping the `cfg.keep` newest. Returns the final path.
pub fn save(cfg: &CheckpointConfig, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    fs::create_dir_all(&cfg.dir)?;
    let path = cfg.dir.join(file_name(ckpt.epoch));
    clapf_faults::write_atomic(&path, &ckpt.to_image(), "checkpoint.save")?;
    prune(cfg)?;
    Ok(path)
}

/// Removes all but the `keep` newest checkpoints.
fn prune(cfg: &CheckpointConfig) -> io::Result<()> {
    let mut epochs = list_epochs(&cfg.dir)?;
    let keep = cfg.resolve_keep();
    while epochs.len() > keep {
        // `list_epochs` sorts descending; the tail is the oldest.
        let old = epochs.pop().expect("len checked");
        let _ = fs::remove_file(cfg.dir.join(file_name(old)));
    }
    Ok(())
}

/// Checkpoint epochs present in `dir`, newest first. Missing dir = empty.
fn list_epochs(dir: &Path) -> io::Result<Vec<usize>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut epochs: Vec<usize> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| parse_epoch(&e.file_name().to_string_lossy()))
        .collect();
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    Ok(epochs)
}

/// Loads and validates one checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    clapf_faults::check("checkpoint.load.read")?;
    Checkpoint::from_image(&fs::read(path)?)
}

/// The newest checkpoint in `dir` that loads cleanly **and** matches
/// `fingerprint`.
///
/// Unreadable or torn files are skipped (they are crash debris, and
/// skipping them is the whole point of keeping more than one checkpoint);
/// a *valid* checkpoint with a different fingerprint is a hard
/// [`CheckpointError::Mismatch`] — it means the caller changed the config
/// or data and resuming would silently train something else.
pub fn latest(dir: &Path, fingerprint: &str) -> Result<Option<Checkpoint>, CheckpointError> {
    for epoch in list_epochs(dir)? {
        match load(&dir.join(file_name(epoch))) {
            Ok(ckpt) => {
                if ckpt.fingerprint != fingerprint {
                    return Err(CheckpointError::Mismatch {
                        expected: fingerprint.to_string(),
                        found: ckpt.fingerprint,
                    });
                }
                return Ok(Some(ckpt));
            }
            // Torn/corrupt/unreadable: fall back to the next-oldest.
            Err(CheckpointError::Io(_)) | Err(CheckpointError::Parse(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Deletes every checkpoint (and stray `.tmp`) in `dir`. Used by
/// non-resuming runs so stale snapshots from a previous run can never be
/// picked up later.
pub fn clear(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("ckpt-") && (name.ends_with(".json") || name.ends_with(".tmp")) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Renders a stable `key=value;…` fingerprint from the parts that define a
/// run's identity. The exact string is compared verbatim by [`latest`].
pub fn fingerprint(parts: &[(&str, String)]) -> String {
    let mut out = String::new();
    for (k, v) in parts {
        if !out.is_empty() {
            out.push(';');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_faults::Fault;
    use clapf_mf::Init;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clapf-ckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt(epoch: usize) -> Checkpoint {
        let mut rng = SmallRng::seed_from_u64(epoch as u64);
        let model = MfModel::new(3, 4, 2, Init::SmallUniform { scale: 0.1 }, &mut rng);
        Checkpoint {
            fingerprint: "fp".into(),
            epoch,
            steps_done: epoch * 100,
            rng_state: rng.state(),
            lr_scale: 1.0,
            retries: 0,
            model,
        }
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        // Failpoints are process-global: hold the guard so a concurrent
        // fault test cannot fail this save.
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("roundtrip");
        let cfg = CheckpointConfig::new(&dir);
        let original = ckpt(3);
        save(&cfg, &original).unwrap();
        let loaded = latest(&dir, "fp").unwrap().expect("checkpoint present");
        assert_eq!(loaded.epoch, 3);
        assert_eq!(loaded.steps_done, 300);
        assert_eq!(loaded.rng_state, original.rng_state);
        // Bitwise-exact model round trip (the image stores raw f32 bits).
        for u in 0..3 {
            for i in 0..4 {
                assert_eq!(
                    loaded
                        .model
                        .score(clapf_data::UserId(u), clapf_data::ItemId(i))
                        .to_bits(),
                    original
                        .model
                        .score(clapf_data::UserId(u), clapf_data::ItemId(i))
                        .to_bits()
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_the_newest_k() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("prune");
        let cfg = CheckpointConfig {
            keep: 2,
            ..CheckpointConfig::new(&dir)
        };
        for e in 0..5 {
            save(&cfg, &ckpt(e)).unwrap();
        }
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ckpt-00000003.json", "ckpt-00000004.json"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_skips_torn_newest_and_falls_back() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("torn");
        let cfg = CheckpointConfig::new(&dir);
        save(&cfg, &ckpt(1)).unwrap();
        save(&cfg, &ckpt(2)).unwrap();
        // Tear the newest file the way a crashed non-atomic writer would.
        let newest = dir.join("ckpt-00000002.json");
        let body = fs::read(&newest).unwrap();
        fs::write(&newest, &body[..body.len() / 2]).unwrap();
        let got = latest(&dir, "fp").unwrap().expect("older survives");
        assert_eq!(got.epoch, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("mismatch");
        let cfg = CheckpointConfig::new(&dir);
        save(&cfg, &ckpt(1)).unwrap();
        let err = latest(&dir, "other-run").unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_or_missing_dir_is_a_fresh_start() {
        let dir = temp_dir("missing");
        assert!(latest(&dir, "fp").unwrap().is_none());
    }

    #[test]
    fn torn_write_failpoint_leaves_no_checkpoint() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("fp-torn");
        let cfg = CheckpointConfig::new(&dir);
        clapf_faults::arm("checkpoint.save.write", Fault::Torn { keep: 20 });
        assert!(save(&cfg, &ckpt(1)).is_err());
        assert!(clapf_faults::hits("checkpoint.save.write") >= 1);
        // Neither a final file nor tmp debris; the directory reads as empty.
        assert!(latest(&dir, "fp").unwrap().is_none());
        clapf_faults::disarm("checkpoint.save.write");
        save(&cfg, &ckpt(1)).unwrap();
        assert_eq!(latest(&dir, "fp").unwrap().unwrap().epoch, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_and_rename_failpoints_abort_cleanly() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("fp-sync");
        let cfg = CheckpointConfig::new(&dir);
        for point in ["checkpoint.save.sync", "checkpoint.save.rename"] {
            clapf_faults::arm(point, Fault::Io);
            assert!(save(&cfg, &ckpt(1)).is_err(), "{point} should fail save");
            assert!(clapf_faults::hits(point) >= 1);
            assert!(latest(&dir, "fp").unwrap().is_none(), "{point} left debris");
            clapf_faults::disarm(point);
        }
        save(&cfg, &ckpt(1)).unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_failpoint_falls_back_to_older_checkpoint() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("fp-read");
        let cfg = CheckpointConfig::new(&dir);
        save(&cfg, &ckpt(1)).unwrap();
        save(&cfg, &ckpt(2)).unwrap();
        // First read (the newest file) errors; `latest` must fall back.
        clapf_faults::arm_nth("checkpoint.load.read", Fault::Io, 0, Some(1));
        let got = latest(&dir, "fp").unwrap().expect("fallback");
        assert_eq!(got.epoch, 1);
        assert!(clapf_faults::hits("checkpoint.load.read") >= 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_removes_all_checkpoints() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("clear");
        let cfg = CheckpointConfig::new(&dir);
        save(&cfg, &ckpt(1)).unwrap();
        fs::write(dir.join("ckpt-00000009.json.tmp"), b"debris").unwrap();
        clear(&dir).unwrap();
        assert!(latest(&dir, "fp").unwrap().is_none());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("version");
        let cfg = CheckpointConfig::new(&dir);
        let path = save(&cfg, &ckpt(1)).unwrap();
        // Bytes 8..12 of a model image are its format version.
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, bytes).unwrap();
        // A lone future-version checkpoint reads as "no valid checkpoint".
        assert!(latest(&dir, "fp").unwrap().is_none());
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let _guard = clapf_faults::exclusive();
        let dir = temp_dir("resave");
        let cfg = CheckpointConfig::new(&dir);
        let first = fs::read(save(&cfg, &ckpt(4)).unwrap()).unwrap();
        let loaded = latest(&dir, "fp").unwrap().expect("checkpoint present");
        assert_eq!(loaded.to_image(), first);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_and_bad_header_or_length_is_a_parse_error() {
        let image = ckpt(2).to_image();
        assert!(Checkpoint::from_image(&image).is_ok());
        for len in 0..image.len() {
            let err = Checkpoint::from_image(&image[..len]).unwrap_err();
            assert!(matches!(err, CheckpointError::Parse(_)), "prefix {len}: {err}");
        }
        let mut flipped = image.clone();
        flipped[0] ^= 0x01;
        let err = Checkpoint::from_image(&flipped).unwrap_err();
        assert!(err.to_string().contains("not a model image"), "{err}");
        // The fingerprint's length prefix follows the 32-byte header and
        // the 3×2 + 4×2 + 4 model floats.
        let mut overrun = image.clone();
        overrun[32 + 4 * 18..32 + 4 * 19].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Checkpoint::from_image(&overrun).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
        // A bundle image is not a checkpoint.
        let mut bundle = image;
        bundle[12..16].copy_from_slice(&1u32.to_le_bytes());
        let err = Checkpoint::from_image(&bundle).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn json_checkpoints_of_the_old_format_are_rejected() {
        let json = br#"{"version":1,"fingerprint":"fp","epoch":1,"steps_done":100,"rng_state":[1,2,3,4],"lr_scale":1.0,"retries":0,"model":{"n_users":1,"n_items":1,"dim":1,"user_factors":[0.5],"item_factors":[0.5],"item_bias":[0.0]}}"#;
        let err = Checkpoint::from_image(json).unwrap_err();
        assert!(matches!(err, CheckpointError::Parse(_)), "{err}");
        assert!(err.to_string().contains("not a model image"), "{err}");
    }
}
