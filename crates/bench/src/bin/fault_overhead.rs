//! Fault-tolerance overhead harness: what the robustness layer costs when
//! nothing is failing. Three measurements back the acceptance bound
//! (disabled-failpoint deltas ≤ 2%):
//!
//! * the per-call cost of a **disarmed failpoint** (`clapf_faults::check`
//!   when the global kill switch is off — one relaxed atomic load),
//! * the wall-time delta of the **crash-safe trainer**
//!   ([`Clapf::fit_with`] and a checkpoint directory) over the plain
//!   serial `fit` with a sparse
//!   checkpoint cadence (so the delta isolates the machinery, not disk),
//! * the throughput of the **guarded atomic write**
//!   ([`clapf_faults::write_all`]) against a plain `write_all`.
//!
//! Emits `results/BENCH_faults.json`. The harness also re-asserts the
//! bit-identity contract: the resumable fit must learn *identical* weights
//! to `fit` from the same base seed, or the times compare different work.

use bench::Cli;
use clapf_core::{CheckpointConfig, Clapf, ClapfConfig, FitOptions};
use clapf_data::synthetic::{generate, WorldConfig};
use clapf_data::Interactions;
use clapf_eval::report;
use clapf_mf::MfModel;
use clapf_sampling::{DssMode, DssSampler};
use clapf_telemetry::timed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::io::Write;

#[derive(Serialize)]
struct FaultOverheadReport {
    iterations: usize,
    runs: usize,
    available_cores: usize,
    /// Per-call cost of a disarmed failpoint, nanoseconds.
    check_disabled_ns: f64,
    /// Plain serial `fit`, best-of-N seconds.
    baseline_secs: f64,
    /// Checkpointed `fit_with` (sparse cadence: one initial + one final
    /// checkpoint), best-of-N seconds.
    resumable_secs: f64,
    resumable_overhead_pct: f64,
    /// Plain `write_all` call into a no-op sink, nanoseconds per call.
    raw_write_ns_per_call: f64,
    /// `clapf_faults::write_all` into the same sink, nanoseconds per call.
    guarded_write_ns_per_call: f64,
    /// The guard's absolute cost per write call, nanoseconds.
    guard_ns_per_call: f64,
    payload_bytes: usize,
}

fn world() -> Interactions {
    let cfg = WorldConfig {
        n_users: 400,
        n_items: 700,
        target_pairs: 20_000,
        ..WorldConfig::default()
    };
    generate(&cfg, &mut SmallRng::seed_from_u64(1)).unwrap()
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

fn main() {
    let cli = Cli::parse();
    let data = world();
    let (iterations, runs) = match cli.scale_name {
        "fast" => (100_000, 15usize),
        _ => (1_000_000, 7),
    };
    let trainer = Clapf::new(ClapfConfig {
        dim: 16,
        iterations,
        ..ClapfConfig::map(0.4)
    });
    let base_seed = cli.scale.seed;

    // --- disarmed failpoint: per-call cost of the fast path -------------
    let check_calls = 50_000_000u64;
    clapf_faults::reset();
    let (hits, wall) = timed(|| {
        let mut n = 0u64;
        for _ in 0..check_calls {
            if clapf_faults::check(black_box("bench.nonexistent")).is_ok() {
                n += 1;
            }
        }
        n
    });
    assert_eq!(hits, check_calls);
    let check_disabled_ns = wall.as_secs_f64() * 1e9 / check_calls as f64;

    // --- fit vs checkpointed fit_with ------------------------------------
    let ckpt_dir = std::env::temp_dir().join(format!("clapf-bench-faults-{}", std::process::id()));
    let ckpt = CheckpointConfig {
        // Sparse cadence: only the epoch-0 safety checkpoint and the final
        // one get written, so disk time does not drown the loop overhead.
        every_epochs: 1_000_000,
        resume: false,
        ..CheckpointConfig::new(ckpt_dir.clone())
    };
    let baseline = || {
        let mut rng = SmallRng::seed_from_u64(base_seed);
        let mut sampler = DssSampler::dss(DssMode::Map);
        let (m, _) = trainer.fit(&data, &mut sampler, &mut rng);
        m.mf
    };
    let resumable = || {
        let mut sampler = DssSampler::dss(DssMode::Map);
        let opts = FitOptions {
            checkpoint: Some(&ckpt),
            ..FitOptions::default()
        };
        let (m, _) = trainer
            .fit_with(&data, &mut sampler, base_seed, opts)
            .expect("resumable fit");
        m.mf
    };

    let mut base_model: Option<MfModel> = None;
    let mut resumable_model: Option<MfModel> = None;
    black_box(baseline());
    let (mut baseline_secs, mut resumable_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        let (m, wall) = timed(baseline);
        baseline_secs = baseline_secs.min(wall.as_secs_f64());
        base_model = Some(m);
        let (m, wall) = timed(resumable);
        resumable_secs = resumable_secs.min(wall.as_secs_f64());
        resumable_model = Some(m);
    }
    std::fs::remove_dir_all(&ckpt_dir).ok();
    assert_eq!(
        base_model.unwrap().params_sq_norm().to_bits(),
        resumable_model.unwrap().params_sq_norm().to_bits(),
        "the checkpointed fit diverged from fit — the times compare different work"
    );

    // --- guarded vs raw write -------------------------------------------
    // The guard is one relaxed atomic load per call; a no-op sink and many
    // small writes make that per-call cost measurable in isolation.
    let payload = vec![0xA5u8; 4096];
    let write_calls = 20_000_000usize;
    let (mut raw_write_ns, mut guarded_write_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs.min(5) {
        let (_, wall) = timed(|| {
            let mut sink = Devour(0);
            for _ in 0..write_calls {
                sink.write_all(black_box(&payload)).unwrap();
            }
            black_box(sink.0)
        });
        raw_write_ns = raw_write_ns.min(wall.as_secs_f64() * 1e9 / write_calls as f64);
        let (_, wall) = timed(|| {
            let mut sink = Devour(0);
            for _ in 0..write_calls {
                clapf_faults::write_all(black_box("bench.write"), &mut sink, black_box(&payload))
                    .unwrap();
            }
            black_box(sink.0)
        });
        guarded_write_ns = guarded_write_ns.min(wall.as_secs_f64() * 1e9 / write_calls as f64);
    }

    let pct = |a: f64, b: f64| (a - b) / b * 100.0;
    let out = FaultOverheadReport {
        iterations,
        runs,
        available_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        check_disabled_ns,
        baseline_secs,
        resumable_secs,
        resumable_overhead_pct: pct(resumable_secs, baseline_secs),
        raw_write_ns_per_call: raw_write_ns,
        guarded_write_ns_per_call: guarded_write_ns,
        guard_ns_per_call: (guarded_write_ns - raw_write_ns).max(0.0),
        payload_bytes: payload.len(),
    };
    eprintln!(
        "disarmed check {check_disabled_ns:.2}ns/call; fit {baseline_secs:.3}s vs resumable \
         {resumable_secs:.3}s ({:+.2}%); write {raw_write_ns:.2}ns vs guarded \
         {guarded_write_ns:.2}ns per call (guard {:.2}ns)",
        out.resumable_overhead_pct, out.guard_ns_per_call
    );
    let path = cli.out_dir.join("BENCH_faults.json");
    report::write_json(&path, &out).expect("write fault overhead results");
    eprintln!("wrote {}", path.display());
}
