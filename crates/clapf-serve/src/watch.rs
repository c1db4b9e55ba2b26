//! Bundle-file watcher: polls the bundle path and hot-swaps on change.
//!
//! Polling (`fs::metadata` mtime, length and, on Unix, inode) instead of
//! inotify keeps the crate std-only and portable. A change triggers a reload through the same
//! serialized path as `POST /reload`; a failed reload (half-written or
//! corrupt file) leaves the live model serving and is retried only when the
//! file changes again, so a persistently bad file does not spin the error
//! counter forever.

use crate::server::WatchCtx;
use std::time::{Duration, SystemTime};

/// One observation of the bundle file, used to detect change.
///
/// Two bundles of one model shape have the same length, and a filesystem
/// stamps mtimes from a coarse clock, so a bundle replaced within one clock
/// tick can match both. The inode cannot: an atomic save or an install
/// renames a new file over the path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Signature {
    mtime: Option<SystemTime>,
    len: u64,
    inode: u64,
}

fn observe(path: &std::path::Path) -> Option<Signature> {
    // Failpoint: an injected poll error reads as "file unobservable this
    // round" — the watcher must skip the round and keep serving, exactly
    // like a real transient stat failure.
    clapf_faults::check("serve.watch.poll").ok()?;
    let meta = std::fs::metadata(path).ok()?;
    #[cfg(unix)]
    let inode = std::os::unix::fs::MetadataExt::ino(&meta);
    #[cfg(not(unix))]
    let inode = 0;
    Some(Signature {
        mtime: meta.modified().ok(),
        len: meta.len(),
        inode,
    })
}

/// Runs until shutdown: every `poll`, compare the bundle file's signature to
/// the last seen one and reload on change.
pub(crate) fn watch_bundle(ctx: &WatchCtx, poll: Duration) {
    let mut last_seen = observe(ctx.bundle_path());
    let mut last_failed: Option<Signature> = None;
    // Sleep in small steps so shutdown is prompt even with long polls.
    let step = poll.min(Duration::from_millis(100)).max(Duration::from_millis(1));
    let mut since_poll = Duration::ZERO;
    loop {
        if ctx.is_shutting_down() {
            return;
        }
        std::thread::sleep(step);
        since_poll += step;
        if since_poll < poll {
            continue;
        }
        since_poll = Duration::ZERO;

        let now = observe(ctx.bundle_path());
        if now.is_none() || now == last_seen || now == last_failed {
            continue;
        }
        match ctx.reload() {
            Ok(_) => {
                last_seen = now;
                last_failed = None;
            }
            Err(_) => {
                // Keep serving the old model; retry only if the file changes
                // again (a half-written file will, once the writer finishes).
                last_failed = now;
            }
        }
    }
}
