//! What the observability and robustness layers cost when they are idle
//! or sampling, in one report: `results/BENCH_overhead.json`.
//!
//! Three legs, all timed by [`bench::timing`] (interleaved rounds, median
//! of per-round paired ratios):
//!
//! * **observer** — the plain `fit`, then `fit_observed` with the disabled
//!   [`NoopObserver`], then with an enabled full-statistics observer (the
//!   hot loop checks `enabled()` once per epoch, not per step).
//! * **faults** — the per-call cost of a disarmed failpoint
//!   (`clapf_faults::check`: one relaxed atomic load), the checkpointed
//!   `fit_with` at a sparse cadence (only the epoch-0 and final checkpoints
//!   are written, timed on their own as `checkpoint_writes_secs`), and the
//!   guarded `clapf_faults::write_all` against a plain `write_all`.
//! * **trace** — ns per disabled [`Tracer::sample`] call (the tax every
//!   request pays), and keep-alive `/recommend` throughput of a real
//!   event-loop server with tracing off, at a 1-in-64 head sample and at
//!   1-in-1. The sampled overhead must stay within
//!   [`OVERHEAD_GATE_PCT`]; the binary exits 1 when it does not.
//!
//! The observer and faults legs share one world, one trainer and one
//! baseline `fit`, timed in the same round-robin. Bit identity is asserted
//! before any number is written: all four fits learn identical weights,
//! and traced response bodies equal untraced ones byte for byte —
//! otherwise the times would compare different work.

use bench::fixture::{ml100k_standin, scratch_dir, Fixture};
use bench::timing::{interleave, median, paired_overhead_pct, OVERHEAD_GATE_PCT};
use bench::{Cli, HTTP_TIMEOUT};
use clapf_core::checkpoint::{self, Checkpoint};
use clapf_core::{CheckpointConfig, Clapf, ClapfConfig, FitOptions};
use clapf_mf::MfModel;
use clapf_sampling::{DssMode, DssSampler};
use clapf_serve::{start, Conn, ServeConfig, ServerHandle};
use clapf_telemetry::{
    timed, Control, EpochStats, FitMeta, FitSummary, NoopObserver, Registry, Tracer,
    TrainObserver,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

#[derive(Serialize)]
struct OverheadReport {
    fit: FitShape,
    observer: ObserverLeg,
    faults: FaultsLeg,
    trace: TraceLeg,
}

/// The fit the observer and faults legs share.
#[derive(Serialize)]
struct FitShape {
    n_pairs: usize,
    dim: usize,
    iterations: usize,
    rounds: usize,
    /// Plain serial `fit`, median seconds over the rounds.
    baseline_secs: f64,
}

#[derive(Serialize)]
struct ObserverLeg {
    disabled_secs: f64,
    enabled_secs: f64,
    disabled_overhead_pct: f64,
    enabled_overhead_pct: f64,
    epochs_observed: usize,
}

#[derive(Serialize)]
struct FaultsLeg {
    /// Per-call cost of a disarmed failpoint, nanoseconds.
    check_disabled_ns: f64,
    /// Checkpointed `fit_with`, median seconds.
    resumable_secs: f64,
    resumable_overhead_pct: f64,
    /// The two checkpoints every resumable fit writes (epoch 0 and the
    /// final one), timed on their own: a fixed cost, so its share grows
    /// as the fit gets faster.
    checkpoint_writes_secs: f64,
    /// `checkpoint_writes_secs` as a percentage of the baseline fit.
    checkpoint_writes_pct: f64,
    /// Plain `write_all` call into a no-op sink, nanoseconds per call.
    raw_write_ns_per_call: f64,
    /// `clapf_faults::write_all` into the same sink, nanoseconds per call.
    guarded_write_ns_per_call: f64,
    /// The guard's absolute cost per write call, nanoseconds.
    guard_ns_per_call: f64,
    payload_bytes: usize,
}

#[derive(Serialize)]
struct TraceLeg {
    n_users: u32,
    n_items: u32,
    dim: usize,
    k: usize,
    rounds: usize,
    requests_per_round: usize,
    /// ns per `Tracer::sample()` call with sampling disabled.
    disabled_sample_ns: f64,
    /// Head-sampling rate of the "sampled" lane.
    sample_every: u64,
    qps_off: f64,
    qps_sampled: f64,
    qps_full: f64,
    /// Throughput cost of 1-in-`sample_every` sampling vs. tracing off, in
    /// percent (negative = within noise).
    overhead_sampled_pct: f64,
    /// Same, with every request traced.
    overhead_full_pct: f64,
    /// The bound on `overhead_sampled_pct`.
    gate_pct: f64,
    pass: bool,
    /// Warmup replays byte-compared untraced vs. fully-traced bodies.
    responses_bit_identical: bool,
}

/// An enabled observer that does everything a real consumer would: keeps
/// the full epoch history and folds every statistic into a checksum so
/// the compiler cannot discard the instrumentation.
#[derive(Default)]
struct FullObserver {
    epochs: Vec<EpochStats>,
    checksum: f64,
}

impl TrainObserver for FullObserver {
    fn on_fit_start(&mut self, meta: &FitMeta) {
        self.checksum += meta.iterations as f64;
    }

    fn on_epoch(&mut self, stats: &EpochStats) -> Control {
        self.checksum += stats.triples_per_sec + stats.loss + stats.user_norm + stats.item_norm;
        self.epochs.push(stats.clone());
        Control::Continue
    }

    fn on_fit_end(&mut self, summary: &FitSummary) {
        self.checksum += summary.steps as f64;
    }
}

/// A `Write` that consumes bytes at memcpy-ish speed, so the write bench
/// measures the guard, not the disk.
struct Devour(u64);

impl Write for Devour {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 = self.0.wrapping_add(buf.len() as u64);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Nanoseconds per call of `f`, over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let ((), wall) = timed(|| (0..calls).for_each(|_| f()));
    wall.as_secs_f64() * 1e9 / calls as f64
}

fn bits(m: &Option<MfModel>) -> u64 {
    m.as_ref().expect("every lane ran").params_sq_norm().to_bits()
}

/// The observer and faults legs: four fits of one world, round-robin.
fn fit_legs(cli: &Cli, dir: &Path) -> (FitShape, ObserverLeg, FaultsLeg) {
    let data = ml100k_standin();
    // fast: ~5 epochs of the 20k-pair world per fit; medium: ~50.
    let (iterations, rounds) = match cli.scale_name {
        "fast" => (100_000, 21usize),
        _ => (1_000_000, 9),
    };
    let dim = 16;
    let trainer = Clapf::new(ClapfConfig {
        dim,
        iterations,
        ..ClapfConfig::map(0.4)
    });
    let seed = cli.scale.seed;
    let ckpt = CheckpointConfig {
        // Sparse cadence: only the epoch-0 safety checkpoint and the final
        // one get written, so disk time does not drown the loop overhead.
        every_epochs: 1_000_000,
        resume: false,
        ..CheckpointConfig::new(dir.join("ckpt"))
    };

    let (mut base, mut noop, mut full, mut resumable) = (None, None, None, None);
    let mut epochs_observed = 0;
    let sampler = || DssSampler::dss(DssMode::Map);
    let mut fit = || {
        let (m, _) = trainer.fit(&data, &mut sampler(), &mut SmallRng::seed_from_u64(seed));
        base = Some(m.mf);
    };
    fit(); // untimed warm-up
    let mut fit_noop = || {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m, _) = trainer.fit_observed(&data, &mut sampler(), &mut rng, &mut NoopObserver);
        noop = Some(m.mf);
    };
    let mut fit_full = || {
        let mut obs = FullObserver::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (m, _) = trainer.fit_observed(&data, &mut sampler(), &mut rng, &mut obs);
        epochs_observed = obs.epochs.len();
        black_box(obs.checksum);
        full = Some(m.mf);
    };
    let mut fit_resumable = || {
        let opts = FitOptions {
            checkpoint: Some(&ckpt),
            ..FitOptions::default()
        };
        let (m, _) = trainer
            .fit_with(&data, &mut sampler(), seed, opts)
            .expect("resumable fit");
        resumable = Some(m.mf);
    };
    let secs = interleave(
        rounds,
        &mut [&mut fit, &mut fit_noop, &mut fit_full, &mut fit_resumable],
    );

    // Neither observation nor checkpointing may touch the learned weights.
    assert_eq!(bits(&base), bits(&noop), "NoopObserver perturbed the fit");
    assert_eq!(bits(&base), bits(&full), "enabled observer perturbed the fit");
    assert_eq!(
        bits(&base),
        bits(&resumable),
        "the checkpointed fit diverged from fit — the times compare different work"
    );

    // The resumable fit's fixed cost: its two checkpoint writes.
    let model = base.expect("baseline ran");
    let doc = |epoch| Checkpoint {
        version: checkpoint::CHECKPOINT_VERSION,
        fingerprint: "bench".into(),
        epoch,
        steps_done: 0,
        rng_state: vec![1, 2, 3, 4],
        lr_scale: 1.0,
        retries: 0,
        model: model.clone(),
    };
    let mut write_two = || {
        for epoch in [0, 1] {
            checkpoint::save(&ckpt, &doc(epoch)).expect("checkpoint write");
        }
    };
    let writes = interleave(rounds.min(7), &mut [&mut write_two]).remove(0);
    let checkpoint_writes_secs = median(&writes);

    clapf_faults::reset();
    let check_disabled_ns = ns_per_call(50_000_000, || {
        assert!(clapf_faults::check(black_box("bench.nonexistent")).is_ok());
    });
    // The guard is one relaxed atomic load per call; a no-op sink and many
    // small writes make that per-call cost measurable in isolation.
    let payload = vec![0xA5u8; 4096];
    let write_calls = 20_000_000;
    let (mut raw_ns, mut guarded_ns) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut sink = Devour(0);
        raw_ns.push(ns_per_call(write_calls, || {
            sink.write_all(black_box(&payload)).unwrap();
        }));
        guarded_ns.push(ns_per_call(write_calls, || {
            clapf_faults::write_all(black_box("bench.write"), &mut sink, black_box(&payload))
                .unwrap();
        }));
        black_box(sink.0);
    }
    let (raw_write_ns, guarded_write_ns) = (median(&raw_ns), median(&guarded_ns));

    let baseline_secs = median(&secs[0]);
    let observer = ObserverLeg {
        disabled_secs: median(&secs[1]),
        enabled_secs: median(&secs[2]),
        disabled_overhead_pct: paired_overhead_pct(&secs[0], &secs[1]),
        enabled_overhead_pct: paired_overhead_pct(&secs[0], &secs[2]),
        epochs_observed,
    };
    let faults = FaultsLeg {
        check_disabled_ns,
        resumable_secs: median(&secs[3]),
        resumable_overhead_pct: paired_overhead_pct(&secs[0], &secs[3]),
        checkpoint_writes_secs,
        checkpoint_writes_pct: checkpoint_writes_secs / baseline_secs * 100.0,
        raw_write_ns_per_call: raw_write_ns,
        guarded_write_ns_per_call: guarded_write_ns,
        guard_ns_per_call: (guarded_write_ns - raw_write_ns).max(0.0),
        payload_bytes: payload.len(),
    };
    let shape = FitShape {
        n_pairs: data.n_pairs(),
        dim,
        iterations,
        rounds,
        baseline_secs,
    };
    (shape, observer, faults)
}

/// One booted server plus a warm keep-alive client.
struct Lane {
    server: ServerHandle,
    conn: Conn,
}

impl Lane {
    fn boot(bundle: &Path, trace_sample: u64) -> Lane {
        let server = start(
            bundle.to_path_buf(),
            ServeConfig {
                trace_sample,
                ..ServeConfig::default()
            },
            Arc::new(Registry::new()),
        )
        .expect("server boots");
        let conn = Conn::open(server.addr(), HTTP_TIMEOUT).expect("connect");
        Lane { server, conn }
    }

    /// Sends `requests` requests round-robin over the users; returns the
    /// bodies of the first `keep`.
    fn run(&mut self, n_users: u32, k: usize, requests: usize, keep: usize) -> Vec<String> {
        let mut bodies = Vec::with_capacity(keep);
        for i in 0..requests {
            let u = i as u32 % n_users;
            let r = self.conn.get(&format!("/recommend/u{u}?k={k}")).expect("request");
            assert_eq!(r.status, 200, "u{u}");
            if i < keep {
                bodies.push(String::from_utf8(r.body).expect("UTF-8 body"));
            }
        }
        bodies
    }
}

/// The trace leg: three servers on one bundle, tracing off / 1-in-64 /
/// 1-in-1.
fn trace_leg(cli: &Cli, dir: &Path) -> TraceLeg {
    let (n_users, n_items, dim, requests, rounds, sample_iters) = match cli.scale_name {
        "fast" => (64u32, 2_000u32, 16usize, 200usize, 240usize, 1usize << 24),
        _ => (256, 8_000, 32, 1_000, 400, 1usize << 26),
    };
    let (k, sample_every) = (10usize, 64u64);

    let tracer = black_box(Tracer::disabled());
    let disabled_sample_ns = ns_per_call(sample_iters, || {
        black_box(tracer.sample());
    });

    let bundle = dir.join("bundle.json");
    Fixture::new(n_users, n_items, dim)
        .save("trace-overhead", cli.scale.seed, &bundle)
        .expect("fixture bundle");
    let mut off = Lane::boot(&bundle, 0);
    let mut sampled = Lane::boot(&bundle, sample_every);
    let mut full = Lane::boot(&bundle, 1);

    // Warmup doubles as the bit-identity check: a full miss cycle (every
    // user scored through the batcher) then a full hit cycle, byte-compared
    // between the untraced and fully-traced servers.
    let cycle = n_users as usize;
    for pass in ["miss", "hit"] {
        let untraced = off.run(n_users, k, cycle, cycle);
        assert_eq!(untraced, full.run(n_users, k, cycle, cycle), "tracing changed a {pass} response");
        sampled.run(n_users, k, cycle, 0);
    }

    let secs = interleave(
        rounds,
        &mut [
            &mut || drop(off.run(n_users, k, requests, 0)),
            &mut || drop(sampled.run(n_users, k, requests, 0)),
            &mut || drop(full.run(n_users, k, requests, 0)),
        ],
    );
    for lane in [off, sampled, full] {
        lane.server.shutdown();
    }

    let qps = |lane: &[f64]| requests as f64 / median(lane);
    let overhead_sampled_pct = paired_overhead_pct(&secs[0], &secs[1]);
    TraceLeg {
        n_users,
        n_items,
        dim,
        k,
        rounds,
        requests_per_round: requests,
        disabled_sample_ns,
        sample_every,
        qps_off: qps(&secs[0]),
        qps_sampled: qps(&secs[1]),
        qps_full: qps(&secs[2]),
        overhead_sampled_pct,
        overhead_full_pct: paired_overhead_pct(&secs[0], &secs[2]),
        gate_pct: OVERHEAD_GATE_PCT,
        pass: overhead_sampled_pct <= OVERHEAD_GATE_PCT,
        responses_bit_identical: true,
    }
}

fn main() {
    let cli = Cli::parse();
    let dir = scratch_dir("overhead");
    let (fit, observer, faults) = fit_legs(&cli, &dir);
    eprintln!(
        "observer: fit {:.3}s, disabled {:+.2}%, enabled {:+.2}% ({} epochs)",
        fit.baseline_secs,
        observer.disabled_overhead_pct,
        observer.enabled_overhead_pct,
        observer.epochs_observed
    );
    eprintln!(
        "faults: disarmed check {:.2}ns/call; checkpointed fit {:+.2}% (its two checkpoint \
         writes alone {:.2}%); guard {:.2}ns per write call",
        faults.check_disabled_ns,
        faults.resumable_overhead_pct,
        faults.checkpoint_writes_pct,
        faults.guard_ns_per_call
    );
    let trace = trace_leg(&cli, &dir);
    eprintln!(
        "trace: disabled sample {:.2}ns/call; off {:.0} qps | 1-in-{} {:.0} qps ({:+.2}%) | \
         1-in-1 {:.0} qps ({:+.2}%)",
        trace.disabled_sample_ns,
        trace.qps_off,
        trace.sample_every,
        trace.qps_sampled,
        trace.overhead_sampled_pct,
        trace.qps_full,
        trace.overhead_full_pct
    );
    std::fs::remove_dir_all(&dir).ok();
    let (pass, pct) = (trace.pass, trace.overhead_sampled_pct);
    cli.write_report(
        "overhead",
        &OverheadReport {
            fit,
            observer,
            faults,
            trace,
        },
    );
    if !pass {
        eprintln!("trace gate: sampled overhead {pct:+.2}% exceeds {OVERHEAD_GATE_PCT}%");
        std::process::exit(1);
    }
}
