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
//! Mechanically, everything runs on the router worker's own thread. Each
//! upstream call is a `Leg`: a request sent on a connection taken from
//! the worker's pool. The worker reads the primary leg with a deadline at
//! the hedge delay; past it, it sends the secondary leg and `race`s the
//! two, reading each in turn for at most `RACE_SLICE` until one holds a
//! complete reply. The loser is abandoned: its connection is dropped, not
//! pooled, so its late reply can never answer a later request, and it
//! gets no breaker verdict — a hedge never turns a slow replica into a
//! tripped one by accident.

use crate::client::Upstream;
use crate::membership::SlotState;
use clapf_serve::Reply;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lower clamp on the hedge delay (don't hedge the healthy fast path).
const MIN_DELAY: Duration = Duration::from_millis(2);
/// Upper clamp on the hedge delay.
const MAX_DELAY: Duration = Duration::from_millis(250);
/// Latency observations required before hedging arms.
const MIN_SAMPLES: usize = 64;
/// Longest one leg of a race is read before the other gets its turn:
/// well under [`MIN_DELAY`], so a reply waits at most one slice (rounded
/// up to the kernel's timer tick) to be noticed.
const RACE_SLICE: Duration = Duration::from_micros(250);

/// When and how aggressively the router hedges.
#[derive(Clone, Copy, Debug)]
pub struct HedgePolicy {
    /// Master switch.
    pub enabled: bool,
    /// Tokens earned per proxied request; one hedge spends one token.
    pub budget_ratio: f64,
    /// Test hook: a fixed delay overriding the p99 estimate.
    pub fixed_delay: Option<Duration>,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            enabled: true,
            budget_ratio: 0.1,
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
    let p99 = window.p99(MIN_SAMPLES)?;
    Some(p99.clamp(MIN_DELAY, MAX_DELAY))
}

/// One upstream call in flight: a request sent to `slot` on a connection
/// taken from the router worker's pool.
pub(crate) struct Leg {
    pub slot: u32,
    pub state: Arc<SlotState>,
    pub up: Upstream,
    sent: Instant,
    /// Once the call finished: its reply or failure, and how long it took.
    pub done: Option<(io::Result<Reply>, Duration)>,
}

impl Leg {
    /// Sends `GET path` on `up`, counting the call in flight at `slot`. A
    /// send failure finishes the leg at once.
    pub fn send(
        slot: u32,
        state: Arc<SlotState>,
        mut up: Upstream,
        path: &str,
        trace: Option<u64>,
    ) -> Leg {
        state.inflight.fetch_add(1, Ordering::Relaxed);
        let sent = Instant::now();
        let done = up.send("GET", path, trace).err().map(|e| (Err(e), sent.elapsed()));
        Leg {
            slot,
            state,
            up,
            sent,
            done,
        }
    }
}

/// Reads the legs still in flight until one holds a complete reply or
/// `deadline` passes. A lone leg is read for the whole wait; racing legs
/// take turns of at most [`RACE_SLICE`]. A leg that fails drops out and
/// the rest race on. Returns whether a reply won; the legs record their
/// own outcomes, and a leg left in flight stays in flight.
pub(crate) fn race(legs: &mut [Leg], deadline: Instant) -> bool {
    loop {
        let running = legs.iter().filter(|l| l.done.is_none()).count();
        if running == 0 {
            return false;
        }
        for leg in legs.iter_mut().filter(|l| l.done.is_none()) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let wait = if running > 1 { left.min(RACE_SLICE) } else { left };
            match leg.up.recv_within(wait) {
                Ok(None) => {}
                Ok(Some(reply)) => {
                    leg.done = Some((Ok(reply), leg.sent.elapsed()));
                    return true;
                }
                Err(e) => leg.done = Some((Err(e), leg.sent.elapsed())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::Membership;
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
        let w = LatencyWindow::new(MIN_SAMPLES);
        let mut policy = HedgePolicy::default();
        assert_eq!(hedge_delay(&policy, &w), None, "cold window: no hedging");
        for _ in 0..MIN_SAMPLES - 1 {
            w.observe(Duration::from_micros(10));
        }
        assert_eq!(hedge_delay(&policy, &w), None, "still warming up");
        w.observe(Duration::from_micros(10));
        let d = hedge_delay(&policy, &w).unwrap();
        assert_eq!(d, MIN_DELAY, "fast fleet clamps to MIN_DELAY");
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
                std::thread::spawn(move || {
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
                });
            }
        });
        addr
    }

    /// A leg to the server at `addr`, on slot 0 of a one-slot membership.
    fn leg(addr: SocketAddr, slot: u32) -> Leg {
        let members = Membership::new(&[addr], Duration::from_secs(3), Default::default());
        let state = members.get(0).unwrap();
        let up = Upstream::new(addr, Duration::from_secs(5));
        Leg::send(slot, state, up, "/x", None)
    }

    #[test]
    fn a_lone_leg_outlives_a_short_deadline_then_answers_on_a_reusable_connection() {
        let addr = slow_server(Duration::from_millis(150), "{}");
        let mut legs = [leg(addr, 0)];
        assert_eq!(legs[0].state.inflight.load(Ordering::Relaxed), 1);
        let t = Instant::now();
        assert!(!race(&mut legs, t + Duration::from_millis(20)), "the hedge delay passes first");
        assert!(legs[0].done.is_none(), "the request stays in flight");
        assert!(race(&mut legs, Instant::now() + Duration::from_secs(5)));
        let (reply, elapsed) = legs[0].done.take().unwrap();
        assert_eq!(reply.unwrap().body, b"{}");
        assert!(elapsed >= Duration::from_millis(100), "{elapsed:?}");
        // The connection that carried the late reply still works.
        let up = &mut legs[0].up;
        up.send("GET", "/y", None).unwrap();
        let again = up.recv_within(Duration::from_secs(5)).unwrap().expect("second reply");
        assert_eq!(again.status, 200);
    }

    #[test]
    fn a_race_is_won_by_the_first_complete_reply() {
        let slow = slow_server(Duration::from_millis(300), r#"{"slow":1}"#);
        let fast = slow_server(Duration::ZERO, r#"{"fast":1}"#);
        let mut legs = [leg(slow, 0), leg(fast, 1)];
        assert!(race(&mut legs, Instant::now() + Duration::from_secs(5)));
        assert!(legs[0].done.is_none(), "the slow leg is still in flight");
        let (reply, elapsed) = legs[1].done.take().unwrap();
        assert_eq!(reply.unwrap().body, br#"{"fast":1}"#);
        assert!(elapsed < Duration::from_millis(300), "{elapsed:?}");
    }

    #[test]
    fn a_failed_leg_drops_out_and_the_other_races_on() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let fast = slow_server(Duration::from_millis(30), "{}");
        let mut legs = [leg(dead, 0), leg(fast, 1)];
        assert!(matches!(legs[0].done, Some((Err(_), _))), "nothing listens: the send fails");
        assert!(race(&mut legs, Instant::now() + Duration::from_secs(5)));
        assert!(matches!(legs[1].done, Some((Ok(_), _))));
    }
}
