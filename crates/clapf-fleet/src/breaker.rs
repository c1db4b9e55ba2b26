//! Per-slot circuit breakers, the fleet-wide retry budget, and the salt
//! counter behind the deterministic jitter every periodic fleet activity
//! uses.
//!
//! The breaker is the classic three-state machine. **Closed** counts
//! consecutive upstream failures; at the trip threshold it **opens** and
//! the slot leaves the routable set for a cooldown. When the cooldown
//! elapses, exactly one request is admitted as the **half-open** probe:
//! success closes the breaker, failure re-opens it with a doubled
//! cooldown (capped). Health-checker probes count too — an out-of-band
//! `/healthz` success closes the breaker the same way a proxied success
//! does, so an idle fleet still heals.
//!
//! The retry budget is a token bucket shared by all slots: every proxied
//! request deposits a fraction of a token, every retry withdraws a whole
//! one. When a replica dies under load the first failures spend the
//! accumulated budget on fast failover; once it runs dry the router stops
//! multiplying traffic instead of feeding a retry storm — the degraded
//! path answers instead.
//!
//! Jitter is deterministic (`clapf_serve::jittered`: splitmix64 over a
//! caller-supplied counter) so chaos runs replay identically under a fixed
//! seed: no wall-clock entropy anywhere in the resilience layer.

use clapf_serve::jittered;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker thresholds and cooldown bounds, shared by every slot.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker.
    pub trip_after: u32,
    /// First open-state cooldown; doubles on each failed probe.
    pub cooldown: Duration,
    /// Cooldown growth cap.
    pub max_cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            cooldown: Duration::from_millis(500),
            max_cooldown: Duration::from_secs(8),
        }
    }
}

/// The breaker's externally visible state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures are being counted.
    Closed,
    /// Slot is out of the routable set until the cooldown elapses.
    Open,
    /// One probe request is in flight; everyone else waits on its verdict.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name for status endpoints and logs.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

enum St {
    Closed { fails: u32 },
    Open { until: Instant, cooldown: Duration },
    HalfOpen { cooldown: Duration },
}

/// One slot's circuit breaker. All transitions happen under a mutex —
/// this is the failure path, not the hot path; a healthy slot takes the
/// lock once per request for a two-branch check.
pub struct Breaker {
    config: BreakerConfig,
    state: Mutex<St>,
}

/// What [`Breaker::try_claim`] decided about admitting a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Closed breaker: business as usual.
    Proceed,
    /// This request is the half-open probe — its outcome decides the slot.
    Probe,
    /// Open (cooling down) or a probe is already in flight: pick elsewhere.
    Rejected,
}

impl Breaker {
    /// A closed breaker with `config`'s thresholds.
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            config,
            state: Mutex::new(St::Closed { fails: 0 }),
        }
    }

    /// Whether a routing snapshot should consider this slot routable right
    /// now. Has no side effects: an open breaker whose cooldown elapsed
    /// reports routable so the ring can send it a probe, but only
    /// [`try_claim`](Breaker::try_claim) performs the transition.
    pub fn routable(&self, now: Instant) -> bool {
        match &*self.state.lock().expect("breaker poisoned") {
            St::Closed { .. } => true,
            St::Open { until, .. } => now >= *until,
            St::HalfOpen { .. } => false,
        }
    }

    /// Claims admission for one request aimed at this slot. A cooled-down
    /// open breaker transitions to half-open and admits the caller as the
    /// probe; a half-open breaker rejects everyone but the probe already
    /// in flight.
    pub fn try_claim(&self, now: Instant) -> Admission {
        let mut st = self.state.lock().expect("breaker poisoned");
        match &*st {
            St::Closed { .. } => Admission::Proceed,
            St::Open { until, cooldown } if now >= *until => {
                let cooldown = *cooldown;
                *st = St::HalfOpen { cooldown };
                Admission::Probe
            }
            St::Open { .. } => Admission::Rejected,
            St::HalfOpen { .. } => Admission::Rejected,
        }
    }

    /// Records a successful call (proxied or out-of-band probe). Any state
    /// collapses to closed. Returns `true` when this flipped the breaker
    /// out of open/half-open — callers count re-admissions off it.
    pub fn on_success(&self) -> bool {
        let mut st = self.state.lock().expect("breaker poisoned");
        let reopened = !matches!(&*st, St::Closed { .. });
        *st = St::Closed { fails: 0 };
        reopened
    }

    /// Records a failed call at `now`, with `jitter_salt` decorrelating
    /// the cooldown deadline across slots. Returns `true` when this call
    /// tripped the breaker open (from closed or half-open).
    pub fn on_failure(&self, now: Instant, jitter_salt: u64) -> bool {
        let mut st = self.state.lock().expect("breaker poisoned");
        match &mut *st {
            St::Closed { fails } => {
                *fails += 1;
                if *fails >= self.config.trip_after {
                    let cooldown = self.config.cooldown;
                    *st = St::Open {
                        until: now + jittered(cooldown, 0.2, jitter_salt),
                        cooldown,
                    };
                    true
                } else {
                    false
                }
            }
            St::HalfOpen { cooldown } => {
                // The probe failed: back off harder before the next one.
                let cooldown = (*cooldown * 2).min(self.config.max_cooldown);
                *st = St::Open {
                    until: now + jittered(cooldown, 0.2, jitter_salt),
                    cooldown,
                };
                true
            }
            St::Open { .. } => false, // late failure from before the trip
        }
    }

    /// The current state, for `/fleet/status` and metrics.
    pub fn state(&self) -> BreakerState {
        match &*self.state.lock().expect("breaker poisoned") {
            St::Closed { .. } => BreakerState::Closed,
            St::Open { .. } => BreakerState::Open,
            St::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }
}

/// A token bucket throttling work that multiplies traffic (retries,
/// hedges). Internally milli-tokens on an atomic, so deposits can be
/// fractional without floats in the hot path.
pub struct RetryBudget {
    millitokens: AtomicI64,
    cap_milli: i64,
    deposit_milli: i64,
}

impl RetryBudget {
    /// A budget earning `ratio` tokens per deposit (per request), holding
    /// at most `cap` whole tokens, starting full.
    pub fn new(ratio: f64, cap: u64) -> RetryBudget {
        let cap_milli = (cap.max(1) as i64) * 1000;
        RetryBudget {
            millitokens: AtomicI64::new(cap_milli),
            cap_milli,
            deposit_milli: (ratio.clamp(0.0, 1.0) * 1000.0) as i64,
        }
    }

    /// Earns this request's fractional token.
    pub fn deposit(&self) {
        let prev = self
            .millitokens
            .fetch_add(self.deposit_milli, Ordering::Relaxed);
        if prev + self.deposit_milli > self.cap_milli {
            // Clamp back to the cap; a racing deposit only overshoots by
            // one deposit's worth, which the next clamp absorbs.
            self.millitokens.store(self.cap_milli, Ordering::Relaxed);
        }
    }

    /// Spends one whole token; `false` means the budget is dry and the
    /// caller must not multiply traffic.
    pub fn try_withdraw(&self) -> bool {
        let prev = self.millitokens.fetch_sub(1000, Ordering::Relaxed);
        if prev < 1000 {
            self.millitokens.fetch_add(1000, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Whole tokens currently available (for status endpoints).
    pub fn available(&self) -> u64 {
        (self.millitokens.load(Ordering::Relaxed).max(0) / 1000) as u64
    }
}

/// A process-wide monotonically increasing jitter salt, for callers
/// without a natural counter of their own.
pub fn next_salt() -> u64 {
    static SALT: AtomicU64 = AtomicU64::new(0);
    SALT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            trip_after: 3,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_millis(400),
        }
    }

    #[test]
    fn trips_after_consecutive_failures_and_probe_heals() {
        let b = Breaker::new(cfg());
        let t0 = Instant::now();
        assert_eq!(b.try_claim(t0), Admission::Proceed);
        assert!(!b.on_failure(t0, 1));
        assert!(!b.on_failure(t0, 2));
        assert!(b.on_failure(t0, 3), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.try_claim(t0), Admission::Rejected);
        assert!(!b.routable(t0));

        // Cooldown elapsed (jitter stays within ±20%): one probe admitted.
        let later = t0 + Duration::from_millis(130);
        assert!(b.routable(later));
        assert_eq!(b.try_claim(later), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.try_claim(later), Admission::Rejected, "one probe only");
        assert!(b.on_success(), "probe success re-admits");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.try_claim(later), Admission::Proceed);
    }

    #[test]
    fn a_success_resets_the_failure_streak() {
        let b = Breaker::new(cfg());
        let t0 = Instant::now();
        b.on_failure(t0, 1);
        b.on_failure(t0, 2);
        b.on_success();
        assert!(!b.on_failure(t0, 3), "streak restarted after a success");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_doubles_the_cooldown_up_to_the_cap() {
        let b = Breaker::new(cfg());
        let mut now = Instant::now();
        for _ in 0..3 {
            b.on_failure(now, 7);
        }
        // Fail probes repeatedly; each re-open doubles the cooldown, so
        // the earliest next probe moves out 100 → 200 → 400 (cap) ms.
        for expect_ms in [200u64, 400, 400] {
            now += Duration::from_millis(1000); // safely past any cooldown
            assert_eq!(b.try_claim(now), Admission::Probe);
            assert!(b.on_failure(now, 11), "failed probe re-trips");
            // Earlier than cooldown*(1-20%): must still be rejected.
            let early = now + Duration::from_millis(expect_ms * 8 / 10 - 10);
            assert_eq!(b.try_claim(early), Admission::Rejected, "{expect_ms}ms");
        }
    }

    #[test]
    fn retry_budget_runs_dry_and_refills_from_deposits() {
        let budget = RetryBudget::new(0.1, 2);
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "cap of 2 is spent");
        for _ in 0..10 {
            budget.deposit(); // 10 × 0.1 = one whole token
        }
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn retry_budget_never_exceeds_its_cap() {
        let budget = RetryBudget::new(1.0, 3);
        for _ in 0..100 {
            budget.deposit();
        }
        assert_eq!(budget.available(), 3);
        for _ in 0..3 {
            assert!(budget.try_withdraw());
        }
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(1000);
        for salt in 0..200u64 {
            let j = jittered(base, 0.2, salt);
            assert_eq!(j, jittered(base, 0.2, salt), "same salt, same jitter");
            assert!(j >= Duration::from_millis(800), "{j:?}");
            assert!(j <= Duration::from_millis(1200), "{j:?}");
        }
        assert_ne!(
            jittered(base, 0.2, 1),
            jittered(base, 0.2, 2),
            "different salts decorrelate"
        );
    }
}
