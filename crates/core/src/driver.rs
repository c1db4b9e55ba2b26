//! The one training driver behind every SGD model (Sec 4.3).
//!
//! CLAPF, BPR and MPR all learn the same way: draw a record, score it,
//! apply an O(d) update. A model supplies that update as a [`Step`];
//! [`train`] owns everything around it — initialization, epoch edges and
//! their [`EpochStats`], observer calls and aborts, divergence handling,
//! checkpoint save and resume, the Hogwild fan-out and the final
//! [`FitReport`].
//!
//! Determinism contract (pinned by tests in `trainer.rs`, `bpr.rs` and
//! `mpr.rs`): everything the driver adds happens at epoch edges and off the
//! RNG stream, so an observed, a checkpointed and a resumed serial fit are
//! all bit-identical to the plain fit with the same seed; one thread is
//! bit-identical to the serial path.

use crate::checkpoint::{self, Checkpoint, CheckpointConfig, CheckpointError};
use crate::objective::ln_sigmoid;
use clapf_data::Interactions;
use clapf_mf::{Init, MfModel, SgdConfig, SharedMfModel};
use clapf_telemetry::{
    Control, EpochStats, FitMeta, FitSummary, NoopObserver, PhaseTimings, TrainObserver,
};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct FitReport {
    /// SGD steps actually executed (less than the budget after an abort).
    pub iterations: usize,
    /// Wall-clock training time.
    pub elapsed: Duration,
    /// Name of the sampler that drove the run.
    pub sampler: &'static str,
    /// True if any parameter became non-finite (learning rate too high).
    pub diverged: bool,
    /// Per-epoch statistics, one entry per epoch. Timing, step counts and
    /// `non_finite` are always populated; the loss/gradient/norm fields are
    /// `NaN` unless the run was observed by an
    /// [`enabled`](TrainObserver::enabled) observer.
    pub epochs: Vec<EpochStats>,
    /// Step count at which an observer, or a divergence with no rollback
    /// left, stopped the run early, if one did.
    pub aborted_at: Option<usize>,
    /// Divergence recoveries: each rolled the model back to the last
    /// checkpoint and shrank the learning rate. Always 0 without
    /// checkpoints.
    pub recoveries: u32,
    /// Epoch the fit restarted from, when it resumed from a checkpoint.
    pub resumed_from: Option<usize>,
}

/// The shape of one fit, resolved against its training data.
#[derive(Copy, Clone, Debug)]
pub struct Plan {
    /// Latent dimension `d`.
    pub dim: usize,
    /// Parameter initialization.
    pub init: Init,
    /// Total SGD steps.
    pub iterations: usize,
    /// Steps per epoch: the sampler-refresh interval, and the grain of
    /// observation, divergence checks and checkpoints.
    pub epoch_steps: usize,
    /// Hogwild workers for a seeded fit (a fit on the caller's RNG stream
    /// always runs on one).
    pub threads: usize,
    /// Steps a worker claims from the shared counter per grab.
    pub chunk: usize,
}

impl Plan {
    /// The step budget: `iterations`, or when it is 0 the automatic
    /// `100·|P|` steps (≈ 100 epochs), capped at 8 million.
    pub fn budget(iterations: usize, n_pairs: usize) -> usize {
        if iterations > 0 {
            iterations
        } else {
            (100 * n_pairs).clamp(1, 8_000_000)
        }
    }
}

/// The per-step SGD rates of one fit.
#[derive(Copy, Clone, Debug)]
pub struct SgdRates {
    /// Learning rate.
    pub lr: f32,
    /// Per-step weight decay of a user row (`lr · reg_user`).
    pub decay_u: f32,
    /// Per-step weight decay of an item row (`lr · reg_item`).
    pub decay_v: f32,
    /// Per-step weight decay of an item bias (`lr · reg_bias`).
    pub decay_b: f32,
}

impl SgdRates {
    /// `sgd`'s rates with the learning rate multiplied by `lr_scale`, the
    /// divergence backoff. `1.0` is exact (multiplying an `f32` by 1.0 is),
    /// which keeps an uninterrupted checkpointed fit bitwise equal to the
    /// plain one.
    pub fn scaled(sgd: &SgdConfig, lr_scale: f32) -> Self {
        let lr = sgd.learning_rate * lr_scale;
        SgdRates {
            lr,
            decay_u: lr * sgd.reg_user,
            decay_v: lr * sgd.reg_item,
            decay_b: lr * sgd.reg_bias,
        }
    }
}

/// One model's SGD update, and what the driver needs to know about it.
pub trait Step {
    /// Dimensions, budget and epoch length of a fit on `data`.
    fn plan(&self, data: &Interactions) -> Plan;

    /// Model label for telemetry, e.g. `"CLAPF(λ=0.4)-MAP"`.
    fn label(&self) -> String;

    /// Name of the sampler completing each record.
    fn sampler(&self) -> &'static str;

    /// The parts of the checkpoint fingerprint that define this run; the
    /// driver appends the data shape.
    fn fingerprint(&self, plan: &Plan, seed: u64) -> Vec<(&'static str, String)>;

    /// Rebuilds model-derived sampler state; called once per epoch, on a
    /// quiescent model.
    fn refresh(&mut self, _model: &MfModel) {}

    /// Multiplies the configured learning rate by `scale` (divergence
    /// backoff). `1.0` must step bit-identically to the unscaled rate.
    fn set_lr_scale(&mut self, scale: f32);

    /// A copy of this step for another Hogwild worker, carrying the
    /// current (just refreshed) sampler state. `None`, the default, keeps
    /// every fit of this step serial.
    fn fork(&self) -> Option<Box<dyn Step + Send>> {
        None
    }

    /// One SGD update: draw a record with `rng`, score it, and apply the
    /// update through `model`. Recording into `tally` must stay off the
    /// RNG stream.
    fn step(
        &mut self,
        model: &SharedMfModel,
        data: &Interactions,
        rng: &mut dyn RngCore,
        tally: &mut StepTally,
    );
}

/// One in this many observed steps times its sampling draw; the epoch
/// extrapolates the probes into a sampling-phase estimate. Power of two so
/// the stride check is a mask.
const SAMPLE_PROBE_STRIDE: u64 = 512;

/// Per-step accounting, local to one worker and drained at epoch edges.
/// When it is disabled every record collapses to one predictable dead
/// branch per step.
#[derive(Clone, Debug, Default)]
pub struct StepTally {
    enabled: bool,
    sampled: u64,
    skipped: u64,
    loss: f64,
    gsum: f64,
    calls: u64,
    probe_ns: u64,
    probed: u64,
}

impl StepTally {
    fn new(enabled: bool) -> Self {
        StepTally {
            enabled,
            ..StepTally::default()
        }
    }

    /// Call before drawing the step's record; pass the result to
    /// [`end_draw`](StepTally::end_draw). Every `SAMPLE_PROBE_STRIDE`-th
    /// observed step times its draw, so the epoch can attribute sweep time
    /// to sampling without two clock reads per step.
    #[inline]
    pub fn start_draw(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.calls += 1;
        (self.calls & (SAMPLE_PROBE_STRIDE - 1) == 1).then(Instant::now)
    }

    /// Ends a draw started by [`start_draw`](StepTally::start_draw).
    #[inline]
    pub fn end_draw(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.probe_ns += t0.elapsed().as_nanos() as u64;
            self.probed += 1;
        }
    }

    /// The sampler found no record to complete; the step was skipped.
    #[inline]
    pub fn skip(&mut self) {
        if self.enabled {
            self.skipped += 1;
        }
    }

    /// A step scored criterion `r` and applied gradient scale `g = σ(−r)`.
    #[inline]
    pub fn record(&mut self, r: f32, g: f32) {
        if self.enabled {
            self.sampled += 1;
            self.loss += -ln_sigmoid(r as f64);
            self.gsum += g as f64;
        }
    }

    fn merge(&mut self, other: &StepTally) {
        self.sampled += other.sampled;
        self.skipped += other.skipped;
        self.loss += other.loss;
        self.gsum += other.gsum;
        self.calls += other.calls;
        self.probe_ns += other.probe_ns;
        self.probed += other.probed;
    }
}

/// Where a fit's randomness comes from.
pub enum Seed<'r> {
    /// Continue the caller's stream. Such a fit runs serially on the
    /// caller's thread and cannot checkpoint.
    Stream(&'r mut dyn RngCore),
    /// Seed the lead stream with `SmallRng::seed_from_u64(seed)`; Hogwild
    /// worker `w ≥ 1` seeds with `seed + w`. Required for checkpoints.
    Base(u64),
}

/// Optional parts of a fit.
#[derive(Default)]
pub struct FitOptions<'a> {
    /// Receives the fit's start, every epoch and its end; `None` observes
    /// nothing and skips the per-step accounting.
    pub observer: Option<&'a mut dyn TrainObserver>,
    /// Crash-safe checkpoints: saved at epoch edges, resumed from when
    /// `resume` is set, and rolled back to on divergence.
    pub checkpoint: Option<&'a CheckpointConfig>,
    /// `(every, probe)`: `probe(steps_done, model)` runs every `every`
    /// steps and once more at the end (the Fig. 4 convergence
    /// experiment evaluates test MAP in it). Probes read the model off the
    /// RNG stream.
    #[allow(clippy::type_complexity)]
    pub probe: Option<(usize, &'a mut dyn FnMut(usize, &MfModel))>,
}

/// The lead worker's RNG: borrowed from the caller, or owned (and so
/// checkpointable) when seeded.
enum Lead<'r> {
    Stream(&'r mut dyn RngCore),
    Owned(SmallRng),
}

impl Lead<'_> {
    fn rng(&mut self) -> &mut dyn RngCore {
        match self {
            Lead::Stream(r) => &mut **r,
            Lead::Owned(r) => r,
        }
    }

    fn owned(&self) -> &SmallRng {
        match self {
            Lead::Owned(r) => r,
            Lead::Stream(_) => unreachable!("checkpointed fits own their RNG"),
        }
    }
}

/// A checkpointed fit's directory settings and run fingerprint.
struct Ckpt<'c> {
    cfg: &'c CheckpointConfig,
    fingerprint: String,
}

impl Ckpt<'_> {
    fn save(
        &self,
        epoch: usize,
        steps: usize,
        rng: &SmallRng,
        lr_scale: f32,
        retries: u32,
        model: &MfModel,
    ) -> std::io::Result<()> {
        let ckpt = Checkpoint {
            fingerprint: self.fingerprint.clone(),
            epoch,
            steps_done: steps,
            rng_state: rng.state(),
            lr_scale,
            retries,
            model: model.clone(),
        };
        checkpoint::save(self.cfg, &ckpt).map(drop)
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        checkpoint::latest(&self.cfg.dir, &self.fingerprint)
    }
}

/// Trains `step` on `data`: the one SGD epoch loop.
///
/// Each epoch refreshes the lead step's sampler, then sweeps its steps —
/// inline on the caller's thread, or fanned out over `plan.threads`
/// Hogwild workers that start from copies of the freshly refreshed lead.
/// At every epoch edge the driver checks the model for non-finite
/// parameters, saves a checkpoint when one is due, reports the epoch to
/// the observer, and then either rolls a diverged run back to its last
/// checkpoint with a shrunk learning rate, aborts it, or moves on.
///
/// Errors only come from checkpoint I/O, so a fit without
/// `opts.checkpoint` never fails.
///
/// # Panics
/// If `opts.checkpoint` is set with a [`Seed::Stream`].
pub fn train<St: Step + ?Sized>(
    data: &Interactions,
    step: &mut St,
    seed: Seed<'_>,
    opts: FitOptions<'_>,
) -> Result<(MfModel, FitReport), CheckpointError> {
    let start = Instant::now();
    let plan = step.plan(data);
    let n_epochs = plan.iterations.div_ceil(plan.epoch_steps);
    let mut noop = NoopObserver;
    let observer: &mut dyn TrainObserver = match opts.observer {
        Some(o) => o,
        None => &mut noop,
    };
    let observing = observer.enabled();
    let mut probe = opts.probe;

    let (mut lead, base) = match seed {
        Seed::Stream(r) => (Lead::Stream(r), None),
        Seed::Base(s) => (Lead::Owned(SmallRng::seed_from_u64(s)), Some(s)),
    };
    // A caller's stream has no seed to derive worker streams from, and a
    // step that cannot fork has no workers to fan out to.
    let threads = match base {
        Some(_) if plan.threads > 1 && step.fork().is_some() => plan.threads,
        _ => 1,
    };
    let mut worker_rngs: Vec<SmallRng> = (1..threads as u64)
        .map(|w| SmallRng::seed_from_u64(base.unwrap_or(0).wrapping_add(w)))
        .collect();

    let ckpt = match opts.checkpoint {
        None => None,
        Some(cfg) => {
            let base = base.expect("checkpointed fits need a Seed::Base");
            let mut parts = step.fingerprint(&plan, base);
            parts.push((
                "data",
                format!("{}x{}:{}", data.n_users(), data.n_items(), data.n_pairs()),
            ));
            std::fs::create_dir_all(&cfg.dir)?;
            if !cfg.resume {
                // A fresh run must never leave stale snapshots a later
                // resume could silently pick up.
                checkpoint::clear(&cfg.dir)?;
            }
            Some(Ckpt {
                cfg,
                fingerprint: checkpoint::fingerprint(&parts),
            })
        }
    };
    let resumed = match &ckpt {
        Some(c) if c.cfg.resume => c.latest()?,
        _ => None,
    };
    let (mut epoch, mut lr_scale, mut retries) = (0, 1.0f32, 0u32);
    let resumed_from = resumed.as_ref().map(|c| c.epoch);
    let mut shared = SharedMfModel::new(match resumed {
        Some(c) => {
            lead = Lead::Owned(SmallRng::from_state(c.rng_state));
            (epoch, lr_scale, retries) = (c.epoch, c.lr_scale, c.retries);
            c.model
        }
        None => {
            let model = MfModel::new(
                data.n_users(),
                data.n_items(),
                plan.dim,
                plan.init,
                &mut lead.rng(),
            );
            // Epoch-0 checkpoint: the rollback target if the first epoch
            // diverges, and the resume point for a crash before the first
            // cadence save.
            if let Some(c) = &ckpt {
                c.save(0, 0, lead.owned(), 1.0, 0, &model)?;
            }
            model
        }
    });
    step.set_lr_scale(lr_scale);

    observer.on_fit_start(&FitMeta {
        model: step.label(),
        sampler: step.sampler().to_string(),
        dim: plan.dim,
        iterations: plan.iterations,
        threads,
        n_users: data.n_users(),
        n_items: data.n_items(),
        n_pairs: data.n_pairs(),
    });

    let mut epochs = Vec::with_capacity(n_epochs.saturating_sub(epoch));
    let mut steps_done = (epoch * plan.epoch_steps).min(plan.iterations);
    let mut aborted_at = None;
    let mut recoveries = 0u32;
    let mut epoch_clock = Instant::now();

    while epoch < n_epochs {
        let refresh_t = Instant::now();
        step.refresh(shared.view());
        let refresh_secs = refresh_t.elapsed().as_secs_f64();
        let sweep_t = Instant::now();
        let mut checkpoint_secs = 0.0f64;
        let mut tally = StepTally::new(observing);
        let first = epoch * plan.epoch_steps;
        let end = ((epoch + 1) * plan.epoch_steps).min(plan.iterations);
        // The lead was just refreshed; DSS/DNS refresh is a pure function
        // of the model, so copies of it are exactly what each worker would
        // have rebuilt.
        let mut workers: Vec<_> = (1..threads).filter_map(|_| step.fork()).collect();
        let mut at = first;
        while at < end {
            let until = match &probe {
                Some((every, _)) if *every > 0 => ((at / every + 1) * every).min(end),
                _ => end,
            };
            if workers.is_empty() {
                let rng = lead.rng();
                for _ in at..until {
                    step.step(&shared, data, rng, &mut tally);
                }
            } else {
                hogwild(
                    step,
                    lead.rng(),
                    &mut workers,
                    &mut worker_rngs,
                    &shared,
                    data,
                    at..until,
                    plan.chunk,
                    &mut tally,
                );
            }
            at = until;
            if let Some((every, f)) = &mut probe {
                if *every > 0 && at % *every == 0 {
                    let t = Instant::now();
                    f(at, shared.view());
                    checkpoint_secs += t.elapsed().as_secs_f64();
                }
            }
        }
        let sweep_secs = (sweep_t.elapsed().as_secs_f64() - checkpoint_secs).max(0.0);
        steps_done = end;

        let bad = shared.view().has_non_finite();
        if let Some(c) = &ckpt {
            let every = c.cfg.resolve_every();
            if !bad && ((epoch + 1) % every == 0 || epoch + 1 == n_epochs) {
                let t = Instant::now();
                c.save(
                    epoch + 1,
                    steps_done,
                    lead.owned(),
                    lr_scale,
                    retries,
                    shared.view(),
                )?;
                checkpoint_secs += t.elapsed().as_secs_f64();
            }
        }
        let now = Instant::now();
        let mut stats = EpochStats::timing_only(epoch, end - first, steps_done, now - epoch_clock);
        epoch_clock = now;
        stats.non_finite = bad;
        stats.phases = PhaseTimings {
            refresh_secs,
            sweep_secs,
            sampling_secs: if tally.probed > 0 {
                tally.probe_ns as f64 / tally.probed as f64 * tally.calls as f64 / 1e9
            } else {
                0.0
            },
            checkpoint_secs,
        };
        if observing {
            let m = shared.view();
            let n = tally.sampled.max(1) as f64;
            stats.loss = tally.loss / n;
            stats.grad_scale = tally.gsum / n;
            stats.skipped = tally.skipped;
            stats.user_norm = m.mean_user_norm();
            stats.item_norm = m.mean_item_norm();
        }
        let control = observer.on_epoch(&stats);
        epochs.push(stats);

        if bad {
            observer.on_divergence(steps_done);
            let rollback = match &ckpt {
                Some(c) if retries < c.cfg.max_retries => c.latest()?.map(|last| (c, last)),
                _ => None,
            };
            if let Some((c, last)) = rollback {
                retries += 1;
                recoveries += 1;
                lr_scale = last.lr_scale * c.cfg.lr_backoff;
                step.set_lr_scale(lr_scale);
                lead = Lead::Owned(SmallRng::from_state(last.rng_state));
                (epoch, steps_done) = (last.epoch, last.steps_done);
                shared = SharedMfModel::new(last.model);
                // Persist the shrunk learning rate: a crash right after the
                // rollback must resume with it, not re-diverge.
                c.save(
                    epoch,
                    steps_done,
                    lead.owned(),
                    lr_scale,
                    retries,
                    shared.view(),
                )?;
                continue;
            }
        }
        if bad || control == Control::Abort {
            if steps_done < plan.iterations {
                aborted_at = Some(steps_done);
            }
            break;
        }
        epoch += 1;
    }
    if let Some((_, f)) = &mut probe {
        f(steps_done, shared.view());
    }

    let model = shared.into_inner();
    let elapsed = start.elapsed();
    let diverged = model.has_non_finite();
    observer.on_fit_end(&FitSummary {
        steps: steps_done,
        elapsed,
        diverged,
        aborted_at,
    });
    let report = FitReport {
        iterations: steps_done,
        elapsed,
        sampler: step.sampler(),
        diverged,
        epochs,
        aborted_at,
        recoveries,
        resumed_from,
    };
    Ok((model, report))
}

/// One Hogwild sweep over `steps`: the lead steps on the caller's thread
/// while each worker steps on a scoped thread, all claiming `chunk`-sized
/// runs of one shared counter and updating the model without locks.
#[allow(clippy::too_many_arguments)]
fn hogwild<St: Step + ?Sized>(
    lead: &mut St,
    lead_rng: &mut dyn RngCore,
    workers: &mut [Box<dyn Step + Send>],
    worker_rngs: &mut [SmallRng],
    shared: &SharedMfModel,
    data: &Interactions,
    steps: std::ops::Range<usize>,
    chunk: usize,
    tally: &mut StepTally,
) {
    let next = AtomicUsize::new(steps.start);
    let drain = |step: &mut dyn FnMut(&mut StepTally), tally: &mut StepTally| loop {
        let s = next.fetch_add(chunk, Ordering::Relaxed);
        if s >= steps.end {
            break;
        }
        for _ in s..(s + chunk).min(steps.end) {
            step(tally);
        }
    };
    let enabled = tally.enabled;
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(worker_rngs.iter_mut())
            .map(|(w, rng)| {
                let drain = &drain;
                scope.spawn(move || {
                    let mut t = StepTally::new(enabled);
                    drain(&mut |t| w.step(shared, data, rng, t), &mut t);
                    t
                })
            })
            .collect();
        drain(&mut |t| lead.step(shared, data, lead_rng, t), tally);
        for h in handles {
            tally.merge(&h.join().expect("Hogwild worker panicked"));
        }
    });
}
