//! Deterministic fault injection for exercising recovery paths.
//!
//! Production code threads **named failpoints** through its fragile
//! operations (file writes, fsyncs, renames, watcher polls, request
//! handlers). Tests then *arm* a failpoint with a [`Fault`] — an injected
//! I/O error, a torn write, a delay, or a panic — and assert that the
//! recovery path actually recovers, rather than asserting it in prose.
//!
//! Nothing is armed in normal operation, and the disabled cost is a single
//! relaxed atomic load per evaluation (no lock, no map lookup, no
//! allocation), so failpoints can sit on paths that run per checkpoint or
//! per request without showing up in benchmarks.
//!
//! [`write_atomic`] is the workspace's one crash-safe file writer (tmp →
//! `fsync` → rename → directory `fsync`), with a failpoint at each stage.
//!
//! ```
//! use clapf_faults::{arm, check, Fault};
//!
//! let _guard = clapf_faults::exclusive(); // serialize failpoint tests
//! arm("demo.write", Fault::Io);
//! assert!(check("demo.write").is_err());
//! assert_eq!(clapf_faults::hits("demo.write"), 1);
//! // _guard resets all failpoints on drop.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// What an armed failpoint injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Return an injected `io::Error` without performing the operation.
    Io,
    /// For write-shaped failpoints: write only the first `keep` bytes, then
    /// fail — simulating a crash or disk-full mid-write. At read-shaped
    /// failpoints it behaves like [`Fault::Io`].
    Torn {
        /// Number of leading bytes that make it to the writer.
        keep: usize,
    },
    /// Sleep for the given number of milliseconds, then let the operation
    /// proceed normally. Used to widen race windows deterministically.
    Delay {
        /// Induced delay in milliseconds.
        ms: u64,
    },
    /// Panic at the failpoint, exercising `catch_unwind` isolation.
    Panic,
}

struct Armed {
    fault: Fault,
    /// Evaluations to let through before firing.
    skip: u64,
    /// Times left to fire; `None` = every evaluation once past `skip`.
    remaining: Option<u64>,
}

impl Armed {
    fn trigger(&mut self) -> Option<Fault> {
        if self.skip > 0 {
            self.skip -= 1;
            return None;
        }
        match &mut self.remaining {
            None => Some(self.fault),
            Some(0) => None,
            Some(n) => {
                *n -= 1;
                Some(self.fault)
            }
        }
    }
}

#[derive(Default)]
struct State {
    armed: HashMap<String, Armed>,
    hits: HashMap<String, u64>,
}

/// Fast-path gate: true only while at least one failpoint is armed (or was
/// armed since the last reset, so hit counters keep accumulating for the
/// duration of a test).
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> MutexGuard<'static, State> {
    static REGISTRY: OnceLock<Mutex<State>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        // A panic fault thrown by a *caller* (never while this lock is
        // held) can poison the mutex; the state itself stays consistent.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arm `point` so every evaluation fires `fault` until disarmed.
pub fn arm(point: &str, fault: Fault) {
    arm_nth(point, fault, 0, None);
}

/// Arm `point` to skip the first `skip` evaluations, then fire `fault`
/// `times` times (`None` = unlimited). Exhausted failpoints stop firing but
/// keep counting hits until [`disarm`]/[`reset`].
pub fn arm_nth(point: &str, fault: Fault, skip: u64, times: Option<u64>) {
    let mut st = state();
    st.armed.insert(
        point.to_string(),
        Armed {
            fault,
            skip,
            remaining: times,
        },
    );
    ACTIVE.store(true, Ordering::Release);
}

/// Disarm `point`; a no-op if it was not armed.
pub fn disarm(point: &str) {
    let mut st = state();
    st.armed.remove(point);
    if st.armed.is_empty() {
        ACTIVE.store(false, Ordering::Release);
    }
}

/// Disarm every failpoint and clear all hit counters.
pub fn reset() {
    let mut st = state();
    st.armed.clear();
    st.hits.clear();
    ACTIVE.store(false, Ordering::Release);
}

/// How many times `point` has been evaluated since the registry became
/// active. Counts every evaluation while *any* failpoint is armed — armed
/// or not, fired or not — so a test can prove an injection site is live.
/// Always 0 while the registry is inactive (the disabled fast path skips
/// counting along with everything else).
pub fn hits(point: &str) -> u64 {
    if !ACTIVE.load(Ordering::Acquire) {
        return 0;
    }
    state().hits.get(point).copied().unwrap_or(0)
}

/// Serialize failpoint-using tests.
///
/// The registry is process-global, and Rust runs tests on concurrent
/// threads; every test that arms a failpoint must hold this guard. Dropping
/// the guard [`reset`]s the registry so no fault leaks into the next test.
pub fn exclusive() -> ExclusiveGuard {
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    let guard = TEST_LOCK
        .lock()
        // A previous test panicking (e.g. via Fault::Panic) poisons the
        // lock; the () it protects cannot be left inconsistent.
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    reset();
    ExclusiveGuard { _guard: guard }
}

/// Guard returned by [`exclusive`]; resets the registry on drop.
pub struct ExclusiveGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        reset();
    }
}

fn fire(point: &str) -> Option<Fault> {
    let fault = {
        let mut st = state();
        *st.hits.entry(point.to_string()).or_insert(0) += 1;
        st.armed.get_mut(point).and_then(Armed::trigger)
        // Lock dropped here: a Panic fault must not poison the registry.
    };
    if let Some(Fault::Delay { ms }) = fault {
        std::thread::sleep(Duration::from_millis(ms));
        return None;
    }
    if let Some(Fault::Panic) = fault {
        panic!("clapf-faults: injected panic at failpoint `{point}`");
    }
    fault
}

fn injected(point: &str) -> io::Error {
    io::Error::other(format!("injected fault at failpoint `{point}`"))
}

/// Evaluate a read-shaped failpoint.
///
/// Returns an injected error if `point` is armed with [`Fault::Io`] or
/// [`Fault::Torn`], sleeps through a [`Fault::Delay`], panics on
/// [`Fault::Panic`], and is one relaxed atomic load when nothing is armed.
#[inline]
pub fn check(point: &str) -> io::Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match fire(point) {
        Some(Fault::Io) | Some(Fault::Torn { .. }) => Err(injected(point)),
        _ => Ok(()),
    }
}

/// Evaluate a write-shaped failpoint, then write `data` to `w`.
///
/// [`Fault::Torn`] writes only the first `keep` bytes before failing —
/// the caller observes a partial write exactly as it would after a crash.
/// [`Fault::Io`] fails before writing anything; [`Fault::Delay`] sleeps and
/// then writes; [`Fault::Panic`] panics. Disabled cost: one relaxed atomic
/// load on top of the underlying `write_all`.
#[inline]
pub fn write_all(point: &str, w: &mut dyn Write, data: &[u8]) -> io::Result<()> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return w.write_all(data);
    }
    match fire(point) {
        Some(Fault::Io) => Err(injected(point)),
        Some(Fault::Torn { keep }) => {
            w.write_all(&data[..keep.min(data.len())])?;
            w.flush()?;
            Err(injected(point))
        }
        _ => w.write_all(data),
    }
}

/// Writes `bytes` to `path` **atomically**: write `<path>.tmp`, `fsync`,
/// rename over `path`, then `fsync` the directory. A crash (or an injected
/// fault) at any instant leaves either the previous file or the new one,
/// never a torn file; a failed write removes its `.tmp`.
///
/// Failpoints: `{prefix}.write`, `{prefix}.sync`, `{prefix}.rename`.
pub fn write_atomic(path: &Path, bytes: &[u8], prefix: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        write_all(&format!("{prefix}.write"), &mut f, bytes)?;
        check(&format!("{prefix}.sync"))?;
        f.sync_all()?;
        drop(f);
        check(&format!("{prefix}.rename"))?;
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself; best-effort (the data is durable).
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn disabled_points_pass_and_count_nothing() {
        let _guard = exclusive();
        assert!(check("t.nothing").is_ok());
        assert_eq!(hits("t.nothing"), 0);
    }

    #[test]
    fn io_fault_fires_until_disarmed() {
        let _guard = exclusive();
        arm("t.io", Fault::Io);
        assert!(check("t.io").is_err());
        assert!(check("t.io").is_err());
        disarm("t.io");
        // Registry went inactive with nothing else armed.
        assert!(check("t.io").is_ok());
    }

    #[test]
    fn nth_arming_skips_then_fires_bounded_times() {
        let _guard = exclusive();
        arm_nth("t.nth", Fault::Io, 2, Some(1));
        assert!(check("t.nth").is_ok());
        assert!(check("t.nth").is_ok());
        assert!(check("t.nth").is_err());
        assert!(check("t.nth").is_ok()); // exhausted
        assert_eq!(hits("t.nth"), 4);
    }

    #[test]
    fn hits_count_unarmed_points_while_active() {
        let _guard = exclusive();
        arm("t.other", Fault::Io);
        assert!(check("t.live-site").is_ok());
        assert_eq!(hits("t.live-site"), 1);
    }

    #[test]
    fn torn_write_keeps_prefix_then_fails() {
        let _guard = exclusive();
        arm("t.torn", Fault::Torn { keep: 4 });
        let mut buf = Vec::new();
        let err = write_all("t.torn", &mut buf, b"abcdefgh").unwrap_err();
        assert_eq!(buf, b"abcd");
        assert!(err.to_string().contains("t.torn"));
        disarm("t.torn");
        write_all("t.torn", &mut buf, b"ijkl").unwrap();
        assert_eq!(buf, b"abcdijkl");
    }

    #[test]
    fn torn_keep_beyond_len_writes_everything_but_still_fails() {
        let _guard = exclusive();
        arm("t.torn-long", Fault::Torn { keep: 100 });
        let mut buf = Vec::new();
        assert!(write_all("t.torn-long", &mut buf, b"xy").is_err());
        assert_eq!(buf, b"xy");
    }

    #[test]
    fn delay_sleeps_then_proceeds() {
        let _guard = exclusive();
        arm("t.delay", Fault::Delay { ms: 30 });
        let start = Instant::now();
        assert!(check("t.delay").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn panic_fault_panics_and_registry_survives() {
        let _guard = exclusive();
        arm_nth("t.panic", Fault::Panic, 0, Some(1));
        let result = std::panic::catch_unwind(|| check("t.panic"));
        assert!(result.is_err());
        // The registry mutex was not held across the panic.
        assert_eq!(hits("t.panic"), 1);
        assert!(check("t.panic").is_ok());
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_cleans_up_on_failure() {
        let _guard = exclusive();
        let dir = std::env::temp_dir().join(format!("clapf-faults-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        write_atomic(&path, b"old contents", "t.atomic").unwrap();
        for (point, fault) in [
            ("t.atomic.write", Fault::Torn { keep: 3 }),
            ("t.atomic.sync", Fault::Io),
            ("t.atomic.rename", Fault::Io),
        ] {
            arm(point, fault);
            assert!(write_atomic(&path, b"new contents", "t.atomic").is_err(), "{point}");
            disarm(point);
            assert_eq!(std::fs::read(&path).unwrap(), b"old contents", "{point}");
            assert!(!dir.join("f.bin.tmp").exists(), "{point} left tmp debris");
        }
        write_atomic(&path, b"new contents", "t.atomic").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = exclusive();
        arm("t.reset", Fault::Io);
        assert!(check("t.reset").is_err());
        reset();
        assert!(check("t.reset").is_ok());
        assert_eq!(hits("t.reset"), 0);
    }
}
