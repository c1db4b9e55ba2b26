//! The training workload `train_dss`: serial CLAPF-MAP fits through
//! `Clapf::fit_observed` with the DSS sampler on the ml100k-like world.
//! Also the world building and scoring replay the serving workload shares.

use crate::check::{check_layer_sum, Row};
use crate::stats::{median, percentile, sort};
use crate::{Args, Outcome};
use clapf_core::{Clapf, ClapfConfig, FitReport};
use clapf_data::split::{split, SplitStrategy};
use clapf_data::synthetic::{self, DatasetSpec};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_metrics::{evaluate, top_k_from_scores, EvalConfig};
use clapf_mf::{Init, MfModel};
use clapf_sampling::{DssMode, DssSampler, DssStats, TripleSampler};
use clapf_telemetry::NoopObserver;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have taken
/// less than `SETUP_BUDGET_S` in all (a cheap set-up is timed more often);
/// `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.5;
/// Salt that separates the fit RNG stream from the world/split stream.
const FIT_SALT: u64 = 0xF17_5EED;
/// Users replayed through the scoring and top-k kernels in a traced run.
const REPLAY_USERS: usize = 2_048;
/// Users per `scores_for_users` call, the server's default batch size.
const REPLAY_BATCH: usize = 32;
/// Recommendation list length.
const K: usize = 10;

/// Everything that sizes one training workload.
pub struct Spec {
    /// A fixed dataset, generated from its own canonical seed like the
    /// paper's stand-in datasets, so that runs on different `--seed`s
    /// differ in split, initialisation and requests but not in the data.
    pub world: DatasetSpec,
    pub dim: usize,
    /// SGD steps per fit. Every fit in a run is the same seeded fit, so
    /// each one must reproduce the first bit for bit.
    pub steps: usize,
}

impl Spec {
    pub fn train_dss() -> Spec {
        Spec {
            world: synthetic::ml100k_like(),
            dim: 20,
            steps: 100_000,
        }
    }

    fn trainer(&self) -> Clapf {
        Clapf::new(ClapfConfig {
            dim: self.dim,
            iterations: self.steps,
            ..ClapfConfig::map(0.3)
        })
    }
}

/// A world split into train and test, as one set-up leaves it.
pub struct World {
    pub train: Interactions,
    pub test: Interactions,
}

/// Per-set-up timings, seconds.
#[derive(Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub split: Vec<f64>,
}

/// Generates the world and splits it 80/20 by `strategy` with the
/// `--seed` stream, recording the two phases' times.
pub fn build_world(
    source: &DatasetSpec,
    seed: u64,
    strategy: SplitStrategy,
    times: &mut SetupTimes,
) -> World {
    let t = Instant::now();
    let data = source.generate();
    times.generate.push(t.elapsed().as_secs_f64());
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    let s = split(&data, strategy, 0.8, &mut rng).expect("80/20 split of a non-empty world");
    times.split.push(t.elapsed().as_secs_f64());
    World {
        train: s.train,
        test: s.test,
    }
}

/// FNV-1a over the training pairs: equal worlds hash equal.
pub fn world_hash(w: &World) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, i) in w.train.pairs().chain(w.test.pairs()) {
        for b in u.0.to_le_bytes().into_iter().chain(i.0.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the bits of the scores of the first 64 users: two fits that
/// differ anywhere in the item table, or in those users, hash differently.
fn model_fingerprint(model: &MfModel) -> u64 {
    let users: Vec<UserId> = (0..model.n_users().min(64)).map(UserId).collect();
    let mut outs = vec![Vec::new(); users.len()];
    model.scores_for_users(&users, &mut outs);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in outs.iter().flatten() {
        h = (h ^ u64::from(s.to_bits())).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Times the scoring kernel and the top-k cut over `users`, returning
/// `(score_us_per_user, topk_us_per_user)`.
pub fn replay_score_topk(model: &MfModel, train: &Interactions, users: &[UserId]) -> (f64, f64) {
    let mut outs = vec![Vec::new(); REPLAY_BATCH];
    let mut items: Vec<ItemId> = Vec::with_capacity(K);
    let (mut score, mut topk) = (Duration::ZERO, Duration::ZERO);
    for block in users.chunks(REPLAY_BATCH) {
        let outs = &mut outs[..block.len()];
        let t = Instant::now();
        model.scores_for_users(block, outs);
        score += t.elapsed();
        let t = Instant::now();
        for (&u, s) in block.iter().zip(outs.iter()) {
            top_k_from_scores(s, train, u, K, &mut items);
            std::hint::black_box(&items);
        }
        topk += t.elapsed();
    }
    let n = users.len().max(1) as f64;
    (score.as_secs_f64() * 1e6 / n, topk.as_secs_f64() * 1e6 / n)
}

/// One call a sampler made into the trainer's RNG.
#[derive(Clone, Copy)]
enum RngCall {
    U32,
    U64,
    Fill(usize),
}

/// An RNG wrapper that logs every call, so a replay can advance the
/// trainer's RNG exactly as the sampler did.
struct Logged<'a> {
    inner: &'a mut dyn RngCore,
    calls: &'a mut Vec<RngCall>,
}

impl RngCore for Logged<'_> {
    fn next_u32(&mut self) -> u32 {
        self.calls.push(RngCall::U32);
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.calls.push(RngCall::U64);
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.calls.push(RngCall::Fill(dest.len()));
        self.inner.fill_bytes(dest);
    }
}

/// One `complete` call: the anchor the trainer passed, the sampler's
/// answer, and where its RNG calls end in the log.
struct Drawn {
    u: UserId,
    i: ItemId,
    answer: Option<(ItemId, ItemId)>,
    calls_end: usize,
}

/// What the sampler was asked and answered over one fit.
#[derive(Default)]
struct Draws {
    steps: Vec<Drawn>,
    calls: Vec<RngCall>,
}

/// A sampler wrapper that times every call into the sampling layer from
/// outside it, and logs the draws of the current fit for a replay.
struct Timed<'a> {
    inner: &'a mut dyn TripleSampler,
    complete: Duration,
    complete_calls: u64,
    refreshes: Vec<f64>,
    draws: Draws,
}

impl TripleSampler for Timed<'_> {
    fn refresh(&mut self, model: &MfModel) {
        let t = Instant::now();
        self.inner.refresh(model);
        self.refreshes.push(t.elapsed().as_secs_f64());
    }

    fn complete(
        &mut self,
        data: &Interactions,
        model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)> {
        let mut logged = Logged {
            inner: rng,
            calls: &mut self.draws.calls,
        };
        let t = Instant::now();
        let answer = self.inner.complete(data, model, u, i, &mut logged);
        self.complete += t.elapsed();
        self.complete_calls += 1;
        self.draws.steps.push(Drawn {
            u,
            i,
            answer,
            calls_end: self.draws.calls.len(),
        });
        answer
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Plays a fit's logged draws back: the same answers, the same RNG
/// advance, no sampling work. A fit through it does the trainer's own
/// work of the logged fit and nothing else.
struct Replay<'a> {
    draws: &'a Draws,
    next: usize,
    scratch: Vec<u8>,
    /// Calls whose anchor differed from the logged one, or that ran past
    /// the log.
    mismatches: u64,
}

impl TripleSampler for Replay<'_> {
    fn refresh(&mut self, _model: &MfModel) {}

    fn complete(
        &mut self,
        _data: &Interactions,
        _model: &MfModel,
        u: UserId,
        i: ItemId,
        rng: &mut dyn RngCore,
    ) -> Option<(ItemId, ItemId)> {
        let Some(d) = self.draws.steps.get(self.next) else {
            self.mismatches += 1;
            return None;
        };
        let start = self
            .next
            .checked_sub(1)
            .map_or(0, |p| self.draws.steps[p].calls_end);
        for call in &self.draws.calls[start..d.calls_end] {
            match *call {
                RngCall::U32 => {
                    rng.next_u32();
                }
                RngCall::U64 => {
                    rng.next_u64();
                }
                RngCall::Fill(n) => {
                    self.scratch.resize(n, 0);
                    rng.fill_bytes(&mut self.scratch);
                }
            }
        }
        if (d.u, d.i) != (u, i) {
            self.mismatches += 1;
        }
        self.next += 1;
        d.answer
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// One fit's result as the window loop sees it.
struct Fit {
    wall: f64,
    report: FitReport,
    model: MfModel,
    fingerprint: u64,
}

fn fit_once(
    trainer: &Clapf,
    train: &Interactions,
    seed: u64,
    sampler: &mut dyn TripleSampler,
) -> Fit {
    let mut rng = SmallRng::seed_from_u64(seed ^ FIT_SALT);
    let t = Instant::now();
    let (model, report) = trainer.fit_observed(train, sampler, &mut rng, &mut NoopObserver);
    let wall = t.elapsed().as_secs_f64();
    let fingerprint = model_fingerprint(&model.mf);
    Fit {
        wall,
        report,
        model: model.mf,
        fingerprint,
    }
}

/// Trainer-reported time inside the epochs' sweeps, seconds.
fn sweep_secs(report: &FitReport) -> f64 {
    report.epochs.iter().map(|e| e.phases.sweep_secs).sum()
}

/// What the fits of one window add up to.
#[derive(Default)]
struct Window {
    fit_walls: Vec<f64>,
    steps: u64,
    epochs: u64,
    /// Trainer-reported time inside epochs, split by phase.
    sweep_secs: f64,
    refresh_secs: f64,
    /// Trainer-reported fit time (its own clock).
    reported_secs: f64,
    last_model: Option<MfModel>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.steps as f64 / self.fit_walls.iter().sum::<f64>()
    }
}

/// Fits back to back until `secs` have passed (at least one fit), checking
/// each against `reference`, the model fingerprint of the run's first fit
/// (set from this window's first fit when `None`), and handing each to
/// `after_fit` with the sampler.
#[allow(clippy::too_many_arguments)]
fn run_window<S: TripleSampler>(
    spec: &Spec,
    world: &World,
    seed: u64,
    secs: f64,
    sampler: &mut S,
    reference: &mut Option<u64>,
    out: &mut Outcome,
    mut after_fit: impl FnMut(&mut S, &Fit, &mut Outcome),
) -> Window {
    let trainer = spec.trainer();
    let mut w = Window::default();
    let started = Instant::now();
    loop {
        let fit = fit_once(&trainer, &world.train, seed, sampler);
        let problem = if fit.report.diverged || fit.model.has_non_finite() {
            Some("training diverged".to_string())
        } else if fit.report.aborted_at.is_some() || fit.report.iterations != spec.steps {
            Some(format!(
                "fit stopped after {} of {} steps",
                fit.report.iterations, spec.steps
            ))
        } else {
            (*reference.get_or_insert(fit.fingerprint) != fit.fingerprint)
                .then(|| "a repeated seeded serial fit was not bit-identical".to_string())
        };
        let steps = spec.steps as u64;
        let failed = if problem.is_some() { steps } else { 0 };
        out.count(steps, failed, || problem.unwrap_or_default());
        after_fit(sampler, &fit, out);
        w.steps += fit.report.iterations as u64;
        w.epochs += fit.report.epochs.len() as u64;
        w.sweep_secs += sweep_secs(&fit.report);
        w.refresh_secs += fit
            .report
            .epochs
            .iter()
            .map(|e| e.phases.refresh_secs)
            .sum::<f64>();
        w.reported_secs += fit.report.elapsed.as_secs_f64();
        w.fit_walls.push(fit.wall);
        w.last_model = Some(fit.model);
        if started.elapsed().as_secs_f64() >= secs {
            return w;
        }
    }
}

/// A traced window: every fit through the `Timed` wrapper, then replayed
/// to time the trainer's own work on its own.
struct Traced {
    window: Window,
    complete: f64,
    complete_calls: u64,
    refreshes: Vec<f64>,
    /// The replayed fits' sweep time: the core layer's self time.
    core_secs: f64,
}

impl Traced {
    fn sampling_secs(&self) -> f64 {
        self.complete + self.refreshes.iter().sum::<f64>()
    }

    /// The trainer's time outside its epochs in the timed fits.
    fn residual_secs(&self) -> f64 {
        let w = &self.window;
        w.reported_secs - w.sweep_secs - w.refresh_secs
    }

    fn fit_secs(&self) -> f64 {
        self.window.fit_walls.iter().sum()
    }
}

/// Runs a traced window on `sampler` with `stats` attached. After each
/// timed fit, the same fit is replayed from its logged draws; the replay
/// must reproduce the fit bit for bit.
fn traced_window(
    spec: &Spec,
    world: &World,
    seed: u64,
    secs: f64,
    sampler: &mut DssSampler,
    reference: &mut Option<u64>,
    out: &mut Outcome,
) -> Traced {
    let trainer = spec.trainer();
    let mut timed = Timed {
        inner: sampler,
        complete: Duration::ZERO,
        complete_calls: 0,
        refreshes: Vec::new(),
        draws: Draws::default(),
    };
    let mut core_secs = 0.0;
    let window = run_window(
        spec,
        world,
        seed,
        secs,
        &mut timed,
        reference,
        out,
        |timed, fit, out| {
            let draws = std::mem::take(&mut timed.draws);
            let mut replay = Replay {
                draws: &draws,
                next: 0,
                scratch: Vec::new(),
                mismatches: 0,
            };
            let again = fit_once(&trainer, &world.train, seed, &mut replay);
            let faithful = replay.mismatches == 0
                && replay.next == draws.steps.len()
                && again.fingerprint == fit.fingerprint;
            out.check(faithful, || {
                "replaying a fit's logged draws did not reproduce the fit".into()
            });
            core_secs += sweep_secs(&again.report);
        },
    );
    Traced {
        window,
        complete: timed.complete.as_secs_f64(),
        complete_calls: timed.complete_calls,
        refreshes: timed.refreshes,
        core_secs,
    }
}

/// The layer-sum rule on a traced window: the sampling layer as timed
/// from outside, the core layer as timed on the replays, and the trainer's
/// time outside its epochs as the residual, against the wall time of the
/// timed fits.
fn layer_sum(
    sampling_secs: f64,
    core_secs: f64,
    residual_secs: f64,
    fit_secs: f64,
) -> Result<f64, String> {
    check_layer_sum(
        &[
            Row::new("clapf-sampling", sampling_secs),
            Row::new("core (replayed fits)", core_secs),
        ],
        &Row::new("residual (trainer outside epochs)", residual_secs),
        fit_secs,
        crate::LAYER_SUM_TOLERANCE,
    )
}

/// Held-out MAP of `model`, and of an untrained model of the same shape
/// (the floor a trained model must clear by a wide margin).
fn holdout_maps(model: &MfModel, world: &World, dim: usize, seed: u64) -> (f64, f64) {
    let cfg = EvalConfig::at_5();
    let trained = evaluate(model, &world.train, &world.test, &cfg).map;
    let mut rng = SmallRng::seed_from_u64(seed ^ FIT_SALT);
    let untrained = MfModel::new(
        world.train.n_users(),
        world.train.n_items(),
        dim,
        Init::default(),
        &mut rng,
    );
    let floor = evaluate(&untrained, &world.train, &world.test, &cfg).map;
    (trained, floor)
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (users, items) = (spec.world.config.n_users, spec.world.config.n_items);
    out.note(format!(
        "world: {users} users x {items} items (80/20 split); CLAPF-MAP d={} lambda=0.3, DSS sampler, {} steps per fit, threads=1",
        spec.dim,
        spec.steps
    ));

    // Set-up: generate + split the world and build the primed sampler
    // (the DSS sampler's cold refresh allocates and sorts its per-factor
    // lists). Repeated; every repeat must build the identical world.
    let mut times = SetupTimes::default();
    let mut cold_refresh = Vec::new();
    let mut hashes = Vec::new();
    let mut state = None;
    while times.total.len() < MIN_SETUPS || times.total.iter().sum::<f64>() < SETUP_BUDGET_S {
        let t = Instant::now();
        let world = build_world(
            &spec.world,
            args.seed,
            SplitStrategy::GlobalPairs,
            &mut times,
        );
        let mut sampler = DssSampler::dss(DssMode::Map);
        let mut rng = SmallRng::seed_from_u64(args.seed);
        let shape = MfModel::new(
            world.train.n_users(),
            world.train.n_items(),
            spec.dim,
            Init::default(),
            &mut rng,
        );
        let tr = Instant::now();
        sampler.refresh(&shape);
        cold_refresh.push(tr.elapsed().as_secs_f64());
        times.total.push(t.elapsed().as_secs_f64());
        hashes.push(world_hash(&world));
        state = Some((world, sampler));
    }
    for &h in &hashes {
        out.check(h == hashes[0], || {
            "the same seed generated different worlds".into()
        });
    }
    let (world, mut sampler) = state.expect("at least one set-up");
    out.set("setup_s", median(&times.total));

    let mut reference = None;
    let window = if args.trace {
        // Untraced half first, for the tracing-overhead ratio.
        let plain = run_window(
            spec,
            &world,
            args.seed,
            args.seconds / 2.0,
            &mut sampler,
            &mut reference,
            &mut out,
            |_, _, _| {},
        );
        let stats = DssStats::new();
        sampler.attach_stats(Arc::clone(&stats));
        let traced = traced_window(
            spec,
            &world,
            args.seed,
            args.seconds / 2.0,
            &mut sampler,
            &mut reference,
            &mut out,
        );
        layer_metrics(&mut out, &traced, &plain, &stats, &times, &cold_refresh);
        let model = traced
            .window
            .last_model
            .as_ref()
            .expect("a window runs at least one fit");
        let users: Vec<UserId> = world
            .test
            .users()
            .filter(|&u| !world.test.items_of(u).is_empty())
            .take(REPLAY_USERS)
            .collect();
        let (score_us, topk_us) = replay_score_topk(model, &world.train, &users);
        out.set("clapf-mf.score_us_per_user", score_us);
        out.set("clapf-metrics.topk_us_per_user", topk_us);
        let mut all = plain;
        all.fit_walls.extend(traced.window.fit_walls);
        all.steps += traced.window.steps;
        all.last_model = traced.window.last_model;
        all
    } else {
        run_window(
            spec,
            &world,
            args.seed,
            args.seconds,
            &mut sampler,
            &mut reference,
            &mut out,
            |_, _, _| {},
        )
    };

    let model = window
        .last_model
        .as_ref()
        .expect("a window runs at least one fit");
    let (map, floor) = holdout_maps(model, &world, spec.dim, args.seed);
    out.check(map >= 2.0 * floor, || {
        format!("held-out MAP {map:.4} is below twice the untrained model's {floor:.4}")
    });
    let mut walls_ms: Vec<f64> = window.fit_walls.iter().map(|s| s * 1e3).collect();
    sort(&mut walls_ms);
    let p50 = percentile(&walls_ms, 0.50).expect("at least one fit");
    let p90 = percentile(&walls_ms, 0.90).expect("at least one fit");
    out.note(format!(
        "p50_ms/p90_ms are whole-fit latencies over {} fits ({} beyond p90); untrained-model MAP floor {floor:.4}",
        p90.samples, p90.beyond
    ));
    out.set("ops_per_s", window.ops_per_s());
    out.set("p50_ms", p50.value);
    out.set("p90_ms", p90.value);
    out.set("holdout_map", map);
    out
}

/// Per-layer metrics of a traced window, and the layer-sum check.
fn layer_metrics(
    out: &mut Outcome,
    traced: &Traced,
    plain: &Window,
    stats: &DssStats,
    times: &SetupTimes,
    cold_refresh: &[f64],
) {
    let w = &traced.window;
    let fit_secs = traced.fit_secs();
    let refresh: f64 = traced.refreshes.iter().sum();
    out.set("clapf-data.generate_s", median(&times.generate));
    out.set("clapf-data.split_s", median(&times.split));
    out.set("core.steps", w.steps as f64);
    out.set("core.epochs", w.epochs as f64);
    out.set(
        "core.sweep_ns_per_step",
        traced.core_secs * 1e9 / w.steps as f64,
    );
    out.set(
        "clapf-sampling.complete_ns",
        traced.complete * 1e9 / traced.complete_calls.max(1) as f64,
    );
    out.set(
        "clapf-sampling.complete_calls",
        traced.complete_calls as f64,
    );
    out.set("clapf-sampling.share", traced.sampling_secs() / fit_secs);
    out.set(
        "clapf-sampling.refresh_ms",
        refresh * 1e3 / traced.refreshes.len().max(1) as f64,
    );
    out.set(
        "clapf-sampling.refresh_calls",
        traced.refreshes.len() as f64,
    );
    out.set("clapf-sampling.cold_refresh_ms", median(cold_refresh) * 1e3);
    let draws = stats.draws.get().max(1) as f64;
    out.set(
        "clapf-sampling.negative_rejections_per_draw",
        stats.negative_rejections.get() as f64 / draws,
    );
    out.set(
        "clapf-sampling.negative_fallback_ratio",
        stats.negative_fallbacks.get() as f64 / draws,
    );
    out.set(
        "clapf-sampling.positive_depth_mean",
        stats.positive_depth.mean(),
    );
    out.set(
        "clapf-telemetry.trace_overhead_ratio",
        w.ops_per_s() / plain.ops_per_s(),
    );
    out.layer_sum(layer_sum(
        traced.sampling_secs(),
        traced.core_secs,
        traced.residual_secs(),
        fit_secs,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_core_time_makes_the_layer_sum_falsifiable() {
        let spec = Spec {
            steps: 5_000,
            ..Spec::train_dss()
        };
        let world = build_world(
            &spec.world,
            3,
            SplitStrategy::GlobalPairs,
            &mut SetupTimes::default(),
        );
        let mut sampler = DssSampler::dss(DssMode::Map);
        let mut out = Outcome::default();
        let traced = traced_window(&spec, &world, 3, 0.0, &mut sampler, &mut None, &mut out);
        assert_eq!((out.attempted, out.failed), (spec.steps as u64 + 1, 0));
        assert!(traced.core_secs > 0.0);
        let (sampling, core, residual, wall) = (
            traced.sampling_secs(),
            traced.core_secs,
            traced.residual_secs(),
            traced.fit_secs(),
        );
        assert!(layer_sum(sampling, core, residual, wall).is_ok());
        // A sampler row timed wrongly (not at all, or twice over) breaks
        // the sum: the core row no longer absorbs what the sampler row
        // misses.
        assert!(layer_sum(0.0, core, residual, wall).is_err());
        assert!(layer_sum(2.0 * sampling, core, residual, wall).is_err());
    }

    #[test]
    fn a_replay_with_other_anchors_is_flagged() {
        let draws = Draws {
            steps: vec![Drawn {
                u: UserId(1),
                i: ItemId(2),
                answer: Some((ItemId(3), ItemId(4))),
                calls_end: 1,
            }],
            calls: vec![RngCall::U64],
        };
        let mut replay = Replay {
            draws: &draws,
            next: 0,
            scratch: Vec::new(),
            mismatches: 0,
        };
        let mut b = clapf_data::InteractionsBuilder::new(2, 5);
        b.push(UserId(1), ItemId(2)).unwrap();
        let data = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = MfModel::new(2, 5, 2, Init::default(), &mut rng);
        let answer = replay.complete(&data, &model, UserId(1), ItemId(2), &mut rng);
        assert_eq!(
            (answer, replay.mismatches),
            (Some((ItemId(3), ItemId(4))), 0)
        );
        replay.complete(&data, &model, UserId(1), ItemId(2), &mut rng);
        assert_eq!(replay.mismatches, 1, "a call past the log");
        replay.next = 0;
        replay.complete(&data, &model, UserId(0), ItemId(2), &mut rng);
        assert_eq!(replay.mismatches, 2, "another anchor");
    }
}
