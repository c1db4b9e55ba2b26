//! Hedged requests: the tail-at-scale pattern for slow-but-alive
//! replicas.
//!
//! The router tracks recent upstream latencies in a fixed window; once a
//! request has been outstanding longer than the window's p99 (clamped to
//! a configured band), the worker re-issues it to the **next ring
//! candidate** and relays whichever answer lands first. Hedges spend from
//! a token-bucket budget ([`crate::breaker::RetryBudget`]) so duplicated
//! work stays a bounded fraction of traffic even when the whole fleet
//! slows down.
//!
//! Mechanically, each router worker owns one [`HedgeRunner`]: a
//! persistent helper thread connected by channels. The worker moves the
//! primary's pooled [`Upstream`] into the runner, waits up to the hedge
//! delay for the reply, and on timeout races a secondary call on its own
//! thread. The helper always finishes the primary read (the connection
//! comes back through the channel and is reclaimed into the worker's
//! pool later), so a late primary still updates latency stats and its
//! slot's breaker — a hedge never turns a slow replica into a marked-dead
//! one by accident.

use crate::client::Upstream;
use clapf_serve::Reply;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// When and how aggressively the router hedges.
#[derive(Clone, Copy, Debug)]
pub struct HedgePolicy {
    /// Master switch.
    pub enabled: bool,
    /// Lower clamp on the hedge delay (don't hedge the healthy fast path).
    pub min_delay: Duration,
    /// Upper clamp on the hedge delay.
    pub max_delay: Duration,
    /// Tokens earned per proxied request; one hedge spends one token.
    pub budget_ratio: f64,
    /// Latency observations required before hedging arms.
    pub min_samples: usize,
    /// Test hook: a fixed delay overriding the p99 estimate.
    pub fixed_delay: Option<Duration>,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            enabled: true,
            min_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(250),
            budget_ratio: 0.1,
            min_samples: 64,
            fixed_delay: None,
        }
    }
}

/// A fixed-size window of recent upstream latencies with a cheap p99.
pub struct LatencyWindow {
    inner: std::sync::Mutex<WindowInner>,
}

struct WindowInner {
    samples: Vec<u64>, // microseconds, ring-buffered
    next: usize,
    filled: usize,
}

impl LatencyWindow {
    /// A window holding the most recent `capacity` observations.
    pub fn new(capacity: usize) -> LatencyWindow {
        LatencyWindow {
            inner: std::sync::Mutex::new(WindowInner {
                samples: vec![0; capacity.max(8)],
                next: 0,
                filled: 0,
            }),
        }
    }

    /// Records one upstream call's latency.
    pub fn observe(&self, latency: Duration) {
        let mut w = self.inner.lock().expect("latency window poisoned");
        let cap = w.samples.len();
        let next = w.next;
        w.samples[next] = latency.as_micros().min(u64::MAX as u128) as u64;
        w.next = (next + 1) % cap;
        w.filled = (w.filled + 1).min(cap);
    }

    /// Observations recorded so far (saturating at the capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("latency window poisoned").filled
    }

    /// Whether no observation has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window's 99th-percentile latency, once at least `min_samples`
    /// observations exist.
    pub fn p99(&self, min_samples: usize) -> Option<Duration> {
        let w = self.inner.lock().expect("latency window poisoned");
        if w.filled < min_samples.max(1) {
            return None;
        }
        let mut v: Vec<u64> = w.samples[..w.filled].to_vec();
        // Round the rank up: 1 outlier in 100 samples still surfaces.
        let idx = (w.filled * 99 / 100).min(w.filled - 1);
        let (_, p99, _) = v.select_nth_unstable(idx);
        Some(Duration::from_micros(*p99))
    }
}

/// The delay after which a request should hedge, per `policy` — `None`
/// when hedging is off or the window hasn't warmed up yet.
pub fn hedge_delay(policy: &HedgePolicy, window: &LatencyWindow) -> Option<Duration> {
    if !policy.enabled {
        return None;
    }
    if let Some(fixed) = policy.fixed_delay {
        return Some(fixed);
    }
    let p99 = window.p99(policy.min_samples)?;
    Some(p99.clamp(policy.min_delay, policy.max_delay))
}

/// One primary request handed to the helper thread.
pub struct HedgeJob {
    /// Worker-local sequence number, echoed back in the [`HedgeDone`] so
    /// the worker can tell this call's completion from an older stray.
    pub seq: u64,
    /// The slot the primary was aimed at.
    pub slot: u32,
    /// The worker's pooled connection, moved in; comes back in the
    /// [`HedgeDone`].
    pub upstream: Upstream,
    /// Full request target (path + query).
    pub path: String,
    /// Propagated trace id.
    pub trace: Option<u64>,
}

/// A finished primary: its verdict and the pooled connection, returned.
pub struct HedgeDone {
    /// The submitting call's sequence number.
    pub seq: u64,
    /// The slot the call was aimed at.
    pub slot: u32,
    /// The upstream's reply or failure.
    pub result: std::io::Result<Reply>,
    /// The pooled connection, back for reclamation.
    pub upstream: Upstream,
    /// Wall-clock time the call took.
    pub elapsed: Duration,
}

/// A worker's persistent hedge helper: one thread, two channels. Dropping
/// the runner closes the job channel and the helper exits after at most
/// one in-flight call.
pub struct HedgeRunner {
    job_tx: Option<mpsc::Sender<HedgeJob>>,
    done_rx: mpsc::Receiver<HedgeDone>,
    outstanding: usize,
}

impl HedgeRunner {
    /// Spawns the helper thread for router worker `worker`.
    pub fn new(worker: usize) -> HedgeRunner {
        let (job_tx, job_rx) = mpsc::channel::<HedgeJob>();
        let (done_tx, done_rx) = mpsc::channel::<HedgeDone>();
        std::thread::Builder::new()
            .name(format!("clapf-fleet-hedge-{worker}"))
            .spawn(move || {
                for mut job in job_rx {
                    let started = Instant::now();
                    let result = job.upstream.request("GET", &job.path, job.trace);
                    let done = HedgeDone {
                        seq: job.seq,
                        slot: job.slot,
                        result,
                        upstream: job.upstream,
                        elapsed: started.elapsed(),
                    };
                    if done_tx.send(done).is_err() {
                        return; // runner dropped; nobody is listening
                    }
                }
            })
            .expect("spawn hedge helper");
        HedgeRunner {
            job_tx: Some(job_tx),
            done_rx,
            outstanding: 0,
        }
    }

    /// Hands the primary call to the helper.
    pub fn submit(&mut self, job: HedgeJob) {
        self.outstanding += 1;
        let _ = self
            .job_tx
            .as_ref()
            .expect("job channel open while runner lives")
            .send(job);
    }

    /// Waits up to `timeout` for a finished call.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<HedgeDone> {
        match self.done_rx.recv_timeout(timeout) {
            Ok(done) => {
                self.outstanding -= 1;
                Some(done)
            }
            Err(_) => None,
        }
    }

    /// Collects a finished call without blocking (reclamation path).
    pub fn try_recv(&mut self) -> Option<HedgeDone> {
        match self.done_rx.try_recv() {
            Ok(done) => {
                self.outstanding -= 1;
                Some(done)
            }
            Err(_) => None,
        }
    }

    /// Calls still in the helper's hands.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

impl Drop for HedgeRunner {
    fn drop(&mut self) {
        self.job_tx.take(); // closes the channel; the helper exits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener};

    #[test]
    fn p99_needs_warmup_then_tracks_the_tail() {
        let w = LatencyWindow::new(256);
        assert_eq!(w.p99(10), None);
        for _ in 0..99 {
            w.observe(Duration::from_micros(100));
        }
        w.observe(Duration::from_millis(50)); // the tail
        let p99 = w.p99(10).unwrap();
        assert!(p99 >= Duration::from_micros(100), "{p99:?}");
        assert!(p99 <= Duration::from_millis(50), "{p99:?}");
        // 1 outlier in 100 samples: p99 lands on (or next to) the spike.
        assert!(p99 >= Duration::from_millis(1), "p99 must see the tail: {p99:?}");
    }

    #[test]
    fn window_is_bounded_and_forgets_old_samples() {
        let w = LatencyWindow::new(16);
        for _ in 0..100 {
            w.observe(Duration::from_millis(500)); // old slow regime
        }
        for _ in 0..16 {
            w.observe(Duration::from_micros(50)); // fully overwritten
        }
        assert_eq!(w.len(), 16);
        assert!(w.p99(8).unwrap() <= Duration::from_micros(50));
    }

    #[test]
    fn hedge_delay_respects_policy_gates() {
        let w = LatencyWindow::new(64);
        let mut policy = HedgePolicy {
            min_samples: 4,
            ..HedgePolicy::default()
        };
        assert_eq!(hedge_delay(&policy, &w), None, "cold window: no hedging");
        for _ in 0..8 {
            w.observe(Duration::from_micros(10));
        }
        let d = hedge_delay(&policy, &w).unwrap();
        assert_eq!(d, policy.min_delay, "fast fleet clamps to min_delay");
        policy.fixed_delay = Some(Duration::from_millis(7));
        assert_eq!(hedge_delay(&policy, &w), Some(Duration::from_millis(7)));
        policy.enabled = false;
        assert_eq!(hedge_delay(&policy, &w), None);
    }

    /// A keep-alive server answering every request after `delay`.
    fn slow_server(delay: Duration, body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut scratch = [0u8; 4096];
                while let Ok(n) = s.read(&mut scratch) {
                    if n == 0 {
                        break;
                    }
                    std::thread::sleep(delay);
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    if s.write_all(resp.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn runner_round_trips_a_call_and_returns_the_connection() {
        let addr = slow_server(Duration::ZERO, "{}");
        let mut runner = HedgeRunner::new(0);
        runner.submit(HedgeJob {
            seq: 1,
            slot: 3,
            upstream: Upstream::new(addr, Duration::from_secs(5)),
            path: "/x".into(),
            trace: None,
        });
        let done = runner.recv_timeout(Duration::from_secs(5)).expect("reply");
        assert_eq!(done.slot, 3);
        assert_eq!(done.result.unwrap().body, b"{}");
        assert_eq!(runner.outstanding(), 0);
        // The returned connection still works (it was pooled, not dropped).
        let mut up = done.upstream;
        assert_eq!(up.request("GET", "/y", None).unwrap().status, 200);
    }

    #[test]
    fn slow_primary_times_out_then_arrives_late() {
        let addr = slow_server(Duration::from_millis(150), "{}");
        let mut runner = HedgeRunner::new(1);
        runner.submit(HedgeJob {
            seq: 2,
            slot: 0,
            upstream: Upstream::new(addr, Duration::from_secs(5)),
            path: "/x".into(),
            trace: None,
        });
        assert!(
            runner.recv_timeout(Duration::from_millis(20)).is_none(),
            "hedge window expires before the slow primary answers"
        );
        assert_eq!(runner.outstanding(), 1);
        let done = runner.recv_timeout(Duration::from_secs(5)).expect("late reply");
        assert!(done.result.is_ok());
        assert!(done.elapsed >= Duration::from_millis(100));
    }
}
