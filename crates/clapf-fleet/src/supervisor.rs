//! Replica process supervision: spawn, announce-line scrape, restart with
//! exponential backoff, graceful drain.
//!
//! A replica is a `clapf serve` child process printing
//! `listening on http://{addr}` once its socket is bound — the same
//! announce contract `scripts/tier1.sh` scrapes. The supervisor reads it
//! from the child's piped stdout, keeps draining the pipe afterwards (a
//! full pipe would wedge the child), and exposes liveness via
//! `try_wait`. Restarts double a backoff from 100ms to a 5s cap; a
//! replica that stays up five seconds earns its backoff reset.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a replica process is launched.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Binary to run (the CLI passes its own `current_exe`).
    pub exe: PathBuf,
    /// Full argument list (e.g. `serve --load … --addr 127.0.0.1:0`).
    pub args: Vec<String>,
    /// How long to wait for the announce line before declaring the spawn
    /// failed.
    pub announce_timeout: Duration,
}

/// Why a replica could not be spawned or supervised.
#[derive(Debug)]
pub enum SupervisorError {
    /// Spawning the child process failed.
    Spawn(std::io::Error),
    /// The child never printed its announce line (it may have exited; the
    /// string carries what it said instead).
    NoAnnounce(String),
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::Spawn(e) => write!(f, "spawning replica: {e}"),
            SupervisorError::NoAnnounce(s) => {
                write!(f, "replica never announced its address: {s}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Backoff bounds for restart-with-backoff.
const BACKOFF_FLOOR: Duration = Duration::from_millis(100);
const BACKOFF_CAP: Duration = Duration::from_secs(5);
/// A replica alive this long earns a backoff reset.
const STABLE_AFTER: Duration = Duration::from_secs(5);

/// Exponential restart backoff with a quiet-period reset: each death
/// doubles the delay from the floor to the cap, but a process that stayed
/// up at least `stable_after` before dying restarts at the floor again —
/// a replica that flapped last week doesn't keep paying 5s restarts
/// forever after the underlying problem is fixed.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    floor: Duration,
    cap: Duration,
    stable_after: Duration,
    current: Duration,
}

impl Backoff {
    /// A backoff starting (and resetting) at `floor`, doubling to `cap`,
    /// with uptimes of `stable_after` or longer earning the reset.
    pub fn new(floor: Duration, cap: Duration, stable_after: Duration) -> Backoff {
        Backoff {
            floor,
            cap,
            stable_after,
            current: floor,
        }
    }

    /// The supervisor's defaults: 100ms doubling to 5s, reset after a 5s
    /// healthy stretch.
    pub fn supervisor_default() -> Backoff {
        Backoff::new(BACKOFF_FLOOR, BACKOFF_CAP, STABLE_AFTER)
    }

    /// The delay to honor before the next restart, given how long the
    /// process stayed up before dying. Escalates internally for the call
    /// after this one.
    pub fn next_delay(&mut self, uptime: Duration) -> Duration {
        if uptime >= self.stable_after {
            self.current = self.floor;
        }
        let delay = self.current;
        self.current = (self.current * 2).min(self.cap);
        delay
    }

    /// The delay the next death would pay, without escalating.
    pub fn peek(&self) -> Duration {
        self.current
    }
}

/// One supervised replica process.
pub struct Replica {
    config: ReplicaConfig,
    child: Child,
    addr: SocketAddr,
    backoff: Backoff,
    started: Instant,
}

impl Replica {
    /// Spawns the replica and waits for its announce line.
    pub fn spawn(config: ReplicaConfig) -> Result<Replica, SupervisorError> {
        let (child, addr) = launch(&config)?;
        Ok(Replica {
            config,
            child,
            addr,
            backoff: Backoff::supervisor_default(),
            started: Instant::now(),
        })
    }

    /// The address the replica announced.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's OS process id (for diagnostics and kill-tests).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Whether the process is still running (non-blocking).
    pub fn is_running(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// The delay to honor before the next [`restart`](Replica::restart) —
    /// exponential from 100ms to a 5s cap, reset once a replica has stayed
    /// up five seconds (see [`Backoff`]). The caller sleeps (it may want
    /// to poll other replicas meanwhile); the supervisor only does the
    /// bookkeeping.
    pub fn restart_delay(&mut self) -> Duration {
        self.backoff.next_delay(self.started.elapsed())
    }

    /// Forcibly kills the replica (SIGKILL — no drain, no warning) and
    /// reaps the corpse. This is the chaos harness's crash injection;
    /// recover with [`restart`](Replica::restart).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Respawns a dead replica, returning the new address. The slot keeps
    /// its ring position; only the address table changes.
    pub fn restart(&mut self) -> Result<SocketAddr, SupervisorError> {
        let _ = self.child.wait(); // reap the corpse; never blocks for long
        let (child, addr) = launch(&self.config)?;
        self.child = child;
        self.addr = addr;
        self.started = Instant::now();
        Ok(addr)
    }

    /// Gracefully drains the replica: `POST /shutdown`, wait up to
    /// `drain`, then kill as a last resort. Always reaps the child — the
    /// fleet must never leak processes.
    pub fn shutdown(mut self, drain: Duration) {
        let _ = clapf_serve::call(self.addr, "POST", "/shutdown", Duration::from_secs(2));
        let deadline = Instant::now() + drain;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return;
                }
            }
        }
    }
}

impl Drop for Replica {
    /// Safety net: a dropped (not drained) replica is killed, never
    /// leaked.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns the child and scrapes `listening on http://{addr}` from its
/// stdout. The reader thread keeps draining stdout for the child's
/// lifetime so the pipe can never fill and wedge it.
fn launch(config: &ReplicaConfig) -> Result<(Child, SocketAddr), SupervisorError> {
    let mut child = Command::new(&config.exe)
        .args(&config.args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(SupervisorError::Spawn)?;
    let stdout = child.stdout.take().expect("stdout piped above");
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::Builder::new()
        .name("clapf-fleet-replica-stdout".into())
        .spawn(move || {
            let mut seen = Vec::new();
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(addr.to_string());
                } else {
                    seen.push(line);
                    if seen.len() == 8 {
                        // Enough context for a no-announce diagnostic.
                        let _ = tx.send(format!("\u{1}{}", seen.join(" | ")));
                    }
                }
                // Keep reading: draining stdout is this thread's job even
                // after the announce.
            }
        })
        .map_err(SupervisorError::Spawn)?;

    match rx.recv_timeout(config.announce_timeout) {
        Ok(line) if !line.starts_with('\u{1}') => match line.parse::<SocketAddr>() {
            Ok(addr) => Ok((child, addr)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(SupervisorError::NoAnnounce(format!(
                    "unparsable announce {line:?}: {e}"
                )))
            }
        },
        Ok(diag) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(SupervisorError::NoAnnounce(
                diag.trim_start_matches('\u{1}').to_string(),
            ))
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(SupervisorError::NoAnnounce("timeout".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_on_rapid_deaths() {
        let mut b = Backoff::new(
            Duration::from_millis(100),
            Duration::from_secs(5),
            Duration::from_secs(5),
        );
        let crash_loop = Duration::from_millis(10); // dies almost instantly
        assert_eq!(b.next_delay(crash_loop), Duration::from_millis(100));
        assert_eq!(b.next_delay(crash_loop), Duration::from_millis(200));
        assert_eq!(b.next_delay(crash_loop), Duration::from_millis(400));
        assert_eq!(b.next_delay(crash_loop), Duration::from_millis(800));
        for _ in 0..10 {
            b.next_delay(crash_loop);
        }
        assert_eq!(b.next_delay(crash_loop), Duration::from_secs(5), "capped");
    }

    #[test]
    fn a_quiet_healthy_period_resets_the_backoff() {
        let mut b = Backoff::supervisor_default();
        let crash_loop = Duration::from_millis(10);
        for _ in 0..8 {
            b.next_delay(crash_loop);
        }
        assert_eq!(b.peek(), Duration::from_secs(5), "escalated to the cap");
        // The replica then stays healthy past the quiet period before its
        // next death: it restarts at the floor, not the cap.
        assert_eq!(
            b.next_delay(Duration::from_secs(6)),
            Duration::from_millis(100),
            "flapping-then-fixed replicas stop paying the 5s tax"
        );
        assert_eq!(b.peek(), Duration::from_millis(200), "escalation restarts");
    }

    #[test]
    fn an_uptime_just_under_the_quiet_period_keeps_escalating() {
        let mut b = Backoff::supervisor_default();
        b.next_delay(Duration::from_millis(10));
        let almost = Duration::from_secs(5) - Duration::from_millis(1);
        assert_eq!(b.next_delay(almost), Duration::from_millis(200));
    }
}
