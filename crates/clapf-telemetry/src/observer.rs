//! The training observation hook.
//!
//! Trainers (`Clapf`, `Bpr`, `Mpr`) call a [`TrainObserver`] at run
//! boundaries and once per epoch, always from a *quiescent* point — an
//! epoch edge, where no worker is stepping — so
//! observers may be arbitrarily slow without perturbing training, and
//! attaching one never changes the RNG stream (observed and unobserved runs
//! are bit-identical; `clapf-core` pins this with a test).
//!
//! The observer contract is deliberately dependency-free: trainers hand over
//! plain numbers ([`EpochStats`]), never model types, so this crate sits
//! below every other crate in the workspace.

use std::time::Duration;

/// Immutable facts about a starting fit.
#[derive(Clone, Debug, PartialEq)]
pub struct FitMeta {
    /// Human-readable model label, e.g. `"CLAPF(λ=0.4)-MAP"`.
    pub model: String,
    /// Sampler name driving the run (`"Uniform"`, `"DSS"`, …).
    pub sampler: String,
    /// Latent dimension.
    pub dim: usize,
    /// Total SGD step budget.
    pub iterations: usize,
    /// Worker thread count (1 = serial).
    pub threads: usize,
    /// Users in the training data.
    pub n_users: u32,
    /// Items in the training data.
    pub n_items: u32,
    /// Observed training pairs.
    pub n_pairs: usize,
}

/// Per-epoch training statistics.
///
/// The cheap fields (steps, timing, throughput) are always populated; the
/// fields that cost a model scan or per-step accounting (`loss`,
/// `grad_scale`, norms) are `NaN` unless the observer reported itself
/// [`enabled`](TrainObserver::enabled).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index, 0-based (an epoch is one sampler-refresh interval).
    pub epoch: usize,
    /// SGD steps executed this epoch.
    pub steps: usize,
    /// Cumulative steps executed so far.
    pub steps_total: usize,
    /// Wall-clock time of this epoch.
    pub elapsed: Duration,
    /// Training throughput this epoch, in sampled triples per second.
    pub triples_per_sec: f64,
    /// Mean logistic-loss proxy `−ln σ(R)` over this epoch's steps
    /// (`NaN` when not recorded).
    pub loss: f64,
    /// Mean gradient scale `σ(−R)` over this epoch's steps — the Eq. 23
    /// factor every parameter update carries (`NaN` when not recorded).
    pub grad_scale: f64,
    /// Steps whose sampler returned no triple (degenerate users).
    pub skipped: u64,
    /// Mean L2 norm of the user factor rows (`NaN` when not recorded).
    pub user_norm: f64,
    /// Mean L2 norm of the item factor rows (`NaN` when not recorded).
    pub item_norm: f64,
    /// True if any model parameter is non-finite at the epoch edge
    /// (always checked; triggers a rollback or an early abort).
    pub non_finite: bool,
    /// Where this epoch's wall-clock went, phase by phase.
    pub phases: PhaseTimings,
}

/// Wall-clock attribution of one epoch across its phases. All zeros when
/// the trainer did not measure (e.g. parallel workers, synthetic epochs);
/// phases a trainer does not have simply stay zero.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct PhaseTimings {
    /// Seconds refreshing the sampler (DSS refresh) at the epoch head.
    pub refresh_secs: f64,
    /// Seconds in the SGD step sweep (sampling + gradient + update).
    pub sweep_secs: f64,
    /// Estimated seconds of the sweep spent drawing training samples.
    /// Measured by a strided probe (one timed draw every few hundred
    /// steps, extrapolated) so the estimate never perturbs the hot loop
    /// or the RNG stream; 0 when not measured.
    pub sampling_secs: f64,
    /// Seconds writing checkpoints during this epoch.
    pub checkpoint_secs: f64,
}

impl PhaseTimings {
    /// True when no phase was measured.
    pub fn is_zero(&self) -> bool {
        self.refresh_secs == 0.0
            && self.sweep_secs == 0.0
            && self.sampling_secs == 0.0
            && self.checkpoint_secs == 0.0
    }
}

impl EpochStats {
    /// An all-`NaN` stats record carrying only step counts and timing —
    /// what a disabled observer's epochs look like.
    pub fn timing_only(epoch: usize, steps: usize, steps_total: usize, elapsed: Duration) -> Self {
        EpochStats {
            epoch,
            steps,
            steps_total,
            elapsed,
            triples_per_sec: crate::per_sec(steps, elapsed),
            loss: f64::NAN,
            grad_scale: f64::NAN,
            skipped: 0,
            user_norm: f64::NAN,
            item_norm: f64::NAN,
            non_finite: false,
            phases: PhaseTimings::default(),
        }
    }
}

/// End-of-run summary.
#[derive(Clone, Debug, PartialEq)]
pub struct FitSummary {
    /// Steps actually executed (less than the budget after an abort).
    pub steps: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// True if any parameter ended non-finite.
    pub diverged: bool,
    /// Step count at which the run aborted early, if it did.
    pub aborted_at: Option<usize>,
}

/// What the trainer should do after an epoch callback.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep training.
    Continue,
    /// Stop now; the model trained so far is returned.
    Abort,
}

/// Observes a training run.
///
/// All callbacks run at quiescent points, on the thread that called the
/// trainer. Observers are [`Send`] so they can be handed to a training
/// thread. Implementations must be read-only with respect to the
/// trained model — the determinism contract is that attaching an observer
/// leaves the learned weights bit-identical.
pub trait TrainObserver: Send {
    /// Whether the trainer should pay for per-step accounting (loss proxy,
    /// gradient scale) and per-epoch model scans (norms, NaN detection).
    /// The no-op observer returns `false`, reducing instrumentation to one
    /// dead branch per SGD step.
    fn enabled(&self) -> bool {
        true
    }

    /// The fit is starting.
    fn on_fit_start(&mut self, _meta: &FitMeta) {}

    /// An epoch (sampler-refresh interval) completed.
    fn on_epoch(&mut self, _stats: &EpochStats) -> Control {
        Control::Continue
    }

    /// A non-finite parameter was detected at `step`; the trainer aborts
    /// right after this callback.
    fn on_divergence(&mut self, _step: usize) {}

    /// The fit finished (normally or via abort).
    fn on_fit_end(&mut self, _summary: &FitSummary) {}
}

/// The default observer: records nothing, costs (almost) nothing.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoopObserver;

impl TrainObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_continues() {
        let mut o = NoopObserver;
        assert!(!o.enabled());
        let stats = EpochStats::timing_only(0, 10, 10, Duration::from_millis(5));
        assert_eq!(o.on_epoch(&stats), Control::Continue);
        assert!(stats.loss.is_nan());
        assert!(stats.triples_per_sec > 0.0);
    }

    #[test]
    fn custom_observer_can_abort() {
        struct AbortAfter(usize);
        impl TrainObserver for AbortAfter {
            fn on_epoch(&mut self, s: &EpochStats) -> Control {
                if s.epoch + 1 >= self.0 {
                    Control::Abort
                } else {
                    Control::Continue
                }
            }
        }
        let mut o = AbortAfter(2);
        let s0 = EpochStats::timing_only(0, 5, 5, Duration::ZERO);
        let s1 = EpochStats::timing_only(1, 5, 10, Duration::ZERO);
        assert_eq!(o.on_epoch(&s0), Control::Continue);
        assert_eq!(o.on_epoch(&s1), Control::Abort);
    }
}
