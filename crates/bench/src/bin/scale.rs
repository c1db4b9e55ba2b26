//! Million-scale end-to-end benchmark: streaming world builds, the
//! CSR-file/mmap data path, training throughput and the SIMD scoring
//! speedup, at 1M and 10M interactions. Emits `results/BENCH_scale.json`.
//!
//! Peak RSS is read from `/proc/self/status` `VmHWM`, which is monotone
//! over a process lifetime — so every measured stage runs in its own
//! child process (the binary re-execs itself with `--leg …`). Each child
//! reports its startup baseline alongside its peak so the parent can
//! compare *deltas*, not absolute footprints.
//!
//! Gates (asserted here so `scripts/tier1.sh --smoke` catches regressions):
//! * training steps/sec is finite and nonzero on a file-backed world;
//! * opening a world via mmap costs a small fraction of building it on the
//!   heap (< 25% at the 1M/10M scale, < 60% for the tiny smoke world
//!   where page-granular sampling dominates);
//! * at full scale the SIMD bulk scorer is ≥ 2× the scalar one.
//!
//! Usage: `scale [--smoke] [--out DIR]`. The shared bench flags
//! (`--fast/--medium/--paper/--seed`) are rejected with exit 2: the worlds
//! are sized by `--smoke` and seeded by the pinned `SEED`.

use clapf_cli::flags::{Arg, Flag, Kind};
use clapf_core::{Clapf, ClapfConfig, FitOptions, ParallelConfig};
use clapf_data::stream::{StreamConfig, StreamWorld};
use clapf_data::{Interactions, UserId};
use clapf_mf::{Init, MfModel};
use clapf_sampling::UniformSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SEED: u64 = 20260807;

/// One benchmark world, keyed by its tag.
fn world_config(tag: &str) -> StreamConfig {
    match tag {
        "smoke" => StreamConfig::scale(50_000, 20_000, 2.0, SEED),
        "1M" => StreamConfig::scale(250_000, 100_000, 4.0, SEED),
        "10M" => StreamConfig::scale(2_500_000, 1_000_000, 4.0, SEED),
        other => panic!("unknown world tag {other:?}"),
    }
}

/// `VmHWM` (peak resident set) of this process, in bytes; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_bytes() -> u64 {
    bench::proc_status("VmHWM").map_or(0, |kb| kb * 1024)
}

/// What one child leg reports back to the parent over stdout. One flat
/// struct for all legs; fields a leg does not measure stay zero.
#[derive(Serialize, Deserialize, Default, Clone, Debug)]
struct LegOut {
    /// Peak RSS at child startup, before any benchmark allocation.
    baseline_rss_bytes: u64,
    /// Peak RSS after the measured work.
    peak_rss_bytes: u64,
    elapsed_secs: f64,
    n_pairs: u64,
    file_bytes: u64,
    mapped: bool,
    access_samples: u64,
    access_checksum: u64,
    train_dim: u64,
    train_steps: u64,
    steps_per_sec: f64,
    one_thread_steps_per_sec: f64,
    per_thread_efficiency: f64,
    eval_dim: u64,
    eval_batch_users: u64,
    wide_users_per_sec: f64,
    scalar_users_per_sec: f64,
    simd_speedup: f64,
    arch_dispatch: bool,
}

fn emit(mut leg: LegOut, baseline: u64, elapsed_secs: f64) {
    leg.baseline_rss_bytes = baseline;
    leg.peak_rss_bytes = peak_rss_bytes();
    leg.elapsed_secs = elapsed_secs;
    println!("{}", serde_json::to_string(&leg).expect("serialize leg output"));
}

/// RSS growth over the child's startup baseline, floored at one page so
/// ratios stay finite.
fn rss_delta(leg: &LegOut) -> u64 {
    leg.peak_rss_bytes.saturating_sub(leg.baseline_rss_bytes).max(4096)
}

// ---------------------------------------------------------------- legs --

/// Generate the world and build the full heap CSR — the memory ceiling the
/// mmap path is measured against.
fn leg_build(tag: &str) {
    let baseline = peak_rss_bytes();
    let t = Instant::now();
    let world = StreamWorld::new(world_config(tag)).expect("valid world config");
    let data = world.build();
    let secs = t.elapsed().as_secs_f64();
    black_box(data.n_pairs());
    emit(
        LegOut {
            n_pairs: data.n_pairs() as u64,
            ..LegOut::default()
        },
        baseline,
        secs,
    );
}

/// Stream the world straight to a CSR file (no in-memory matrix).
fn leg_write(tag: &str, file: &Path) {
    let baseline = peak_rss_bytes();
    let t = Instant::now();
    let world = StreamWorld::new(world_config(tag)).expect("valid world config");
    let n_pairs = world.write_csr(file).expect("write CSR file");
    let secs = t.elapsed().as_secs_f64();
    emit(
        LegOut {
            n_pairs,
            file_bytes: std::fs::metadata(file).map(|m| m.len()).unwrap_or(0),
            ..LegOut::default()
        },
        baseline,
        secs,
    );
}

/// Reopen the written world memory-mapped and touch a bounded sample of it
/// — the leg whose RSS delta must stay far below the heap build's.
fn leg_open(file: &Path) {
    let baseline = peak_rss_bytes();
    let t = Instant::now();
    let data = Interactions::open_csr(file).expect("open CSR file");
    let open_secs = t.elapsed().as_secs_f64();

    // Bounded random access: enough to prove the view works, few enough
    // that only a sliver of the file's pages fault in. Linux fault-around
    // maps up to 64 KiB of already-cached pages around every fault, so each
    // probe costs ~128 KiB of residency (a user_ptr leaf plus a user_items
    // window); the count stays small and fixed so the windows can never
    // tile the arrays end to end.
    let n_pairs = data.n_pairs();
    let samples = 64.min(n_pairs);
    let mut checksum = 0u64;
    for k in 0..samples {
        let (u, i) = data.pair_at(k * (n_pairs / samples));
        checksum = checksum.wrapping_add(u.0 as u64).wrapping_add(i.0 as u64);
        checksum = checksum.wrapping_add(data.degree_of_user(u) as u64);
        checksum = checksum.wrapping_add(u64::from(data.contains(u, i)));
    }
    black_box(checksum);
    emit(
        LegOut {
            n_pairs: n_pairs as u64,
            mapped: data.is_mapped(),
            access_samples: samples as u64,
            access_checksum: checksum,
            ..LegOut::default()
        },
        baseline,
        open_secs,
    );
}

/// Train directly on the file-backed world: SGD steps/sec at d = 16,
/// serial and one-worker parallel (per-thread efficiency).
fn leg_train(file: &Path) {
    let baseline = peak_rss_bytes();
    let data = Interactions::open_csr(file).expect("open CSR file");
    let steps = data.n_pairs().min(2_000_000);
    let config = ClapfConfig {
        dim: 16,
        iterations: steps,
        ..ClapfConfig::map(0.4)
    };

    let trainer = Clapf::new(config);
    let mut rng = SmallRng::seed_from_u64(SEED ^ 1);
    let t = Instant::now();
    let (model, fit) = trainer.fit(&data, &mut UniformSampler, &mut rng);
    let serial_secs = t.elapsed().as_secs_f64();
    black_box(model.mf.params_sq_norm());
    assert!(!fit.diverged, "serial fit diverged");

    let par = Clapf::new(ClapfConfig {
        parallel: ParallelConfig {
            threads: 1,
            chunk_size: 0,
        },
        ..config
    });
    let t = Instant::now();
    let (pmodel, pfit) = par
        .fit_with(&data, &mut UniformSampler, SEED ^ 1, FitOptions::default())
        .expect("a fit without checkpoints does no I/O");
    let par_secs = t.elapsed().as_secs_f64();
    black_box(pmodel.mf.params_sq_norm());
    assert!(!pfit.diverged, "one-worker fit diverged");

    let serial_sps = steps as f64 / serial_secs;
    let par_sps = steps as f64 / par_secs;
    emit(
        LegOut {
            n_pairs: data.n_pairs() as u64,
            train_dim: 16,
            train_steps: steps as u64,
            steps_per_sec: serial_sps,
            one_thread_steps_per_sec: par_sps,
            per_thread_efficiency: par_sps / serial_sps,
            ..LegOut::default()
        },
        baseline,
        serial_secs,
    );
}

/// Bulk-scoring throughput at d = 32: the SIMD `scores_for_users` against
/// its scalar reference, on the world's real catalogue size.
fn leg_eval(tag: &str) {
    let baseline = peak_rss_bytes();
    let cfg = world_config(tag);
    let dim = 32usize;
    let mut rng = SmallRng::seed_from_u64(SEED ^ 2);
    let model = MfModel::new(cfg.n_users, cfg.n_items, dim, Init::default(), &mut rng);

    let batch = 32usize.min(cfg.n_users as usize);
    let users: Vec<UserId> = (0..batch as u32).map(|u| UserId(u * 7 % cfg.n_users)).collect();
    let mut outs: Vec<Vec<f32>> = vec![Vec::new(); batch];

    // Warm both paths before timing: the first call pays the one-off costs
    // (allocating the 32 output rows, faulting the model tables in) and
    // must not be charged to whichever kernel happens to run first.
    model.scores_for_users(&users, &mut outs);
    model.scores_for_users_scalar(&users, &mut outs);

    let time_best = |f: &mut dyn FnMut()| {
        let mut best = f64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    let wide_secs = time_best(&mut || {
        model.scores_for_users(&users, &mut outs);
        black_box(outs[0][0]);
    });
    let wide_sum: f64 = outs.iter().map(|o| o.iter().map(|&x| x as f64).sum::<f64>()).sum();
    let scalar_secs = time_best(&mut || {
        model.scores_for_users_scalar(&users, &mut outs);
        black_box(outs[0][0]);
    });
    let scalar_sum: f64 = outs.iter().map(|o| o.iter().map(|&x| x as f64).sum::<f64>()).sum();
    // The wide kernel reassociates relative to the scalar one (bit-identity
    // is pinned wide-vs-portable-wide, not wide-vs-scalar), so the sanity
    // check here is a tolerance, not bit equality.
    let tol = 1e-3 * scalar_sum.abs().max(1.0);
    assert!(
        (wide_sum - scalar_sum).abs() <= tol,
        "SIMD and scalar bulk scorers disagree: {wide_sum} vs {scalar_sum}"
    );

    emit(
        LegOut {
            eval_dim: dim as u64,
            eval_batch_users: batch as u64,
            wide_users_per_sec: batch as f64 / wide_secs,
            scalar_users_per_sec: batch as f64 / scalar_secs,
            simd_speedup: scalar_secs / wide_secs,
            arch_dispatch: clapf_mf::arch_dispatch_active(),
            ..LegOut::default()
        },
        baseline,
        wide_secs,
    );
}

// -------------------------------------------------------------- parent --

#[derive(Serialize)]
struct WorldRow {
    tag: String,
    n_users: u32,
    n_items: u32,
    avg_degree: f64,
    n_pairs: u64,
    build_heap: LegOut,
    write_file: LegOut,
    open_mmap: LegOut,
    train: LegOut,
    eval: LegOut,
    /// Open-leg RSS growth as a fraction of the heap build's.
    mmap_rss_vs_heap_build: f64,
    simd_scoring_speedup: f64,
}

#[derive(Serialize)]
struct ScaleReport {
    smoke: bool,
    worlds: Vec<WorldRow>,
}

fn run_leg(leg: &str, tag: &str, file: &Path) -> LegOut {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--leg", leg, "--world", tag, "--file"])
        .arg(file)
        .output()
        .expect("spawn benchmark leg");
    if !out.status.success() {
        panic!(
            "leg {leg} ({tag}) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let line = String::from_utf8(out.stdout).expect("leg output is UTF-8");
    serde_json::from_str(line.trim()).expect("leg output parses")
}

fn bench_world(tag: &str, scratch: &Path) -> WorldRow {
    let cfg = world_config(tag);
    let file = scratch.join(format!("scale_{tag}.csr"));
    eprintln!(
        "[{tag}] {} users × {} items, target degree {}",
        cfg.n_users, cfg.n_items, cfg.avg_degree
    );

    let build = run_leg("build", tag, &file);
    eprintln!(
        "[{tag}] heap build: {:.2}s, {:.1} MB peak delta",
        build.elapsed_secs,
        rss_delta(&build) as f64 / 1e6
    );
    let write = run_leg("write", tag, &file);
    eprintln!(
        "[{tag}] stream to file: {:.2}s, {:.1} MB file, {:.1} MB peak delta",
        write.elapsed_secs,
        write.file_bytes as f64 / 1e6,
        rss_delta(&write) as f64 / 1e6
    );
    let open = run_leg("open", tag, &file);
    let rss_ratio = rss_delta(&open) as f64 / rss_delta(&build) as f64;
    eprintln!(
        "[{tag}] mmap open: {:.4}s, {:.1} MB peak delta ({:.1}% of heap build)",
        open.elapsed_secs,
        rss_delta(&open) as f64 / 1e6,
        rss_ratio * 100.0
    );
    let train = run_leg("train", tag, &file);
    eprintln!(
        "[{tag}] train d=16: {:.0} steps/sec serial, {:.2} per-thread efficiency",
        train.steps_per_sec, train.per_thread_efficiency
    );
    let eval = run_leg("eval", tag, &file);
    eprintln!(
        "[{tag}] eval d=32: SIMD {:.2}× scalar ({:.1} users/sec)",
        eval.simd_speedup, eval.wide_users_per_sec
    );
    std::fs::remove_file(&file).ok();

    assert_eq!(
        build.n_pairs, write.n_pairs,
        "heap build and streaming writer disagree on pair count"
    );

    // The gates. Below ~100 MB of CSR the mmap side is dominated by
    // page-granularity sampling faults and fixed process overhead, so the
    // strict 25% bar only applies at the 10M world; smaller worlds get a
    // looser sanity bound. The SIMD bar applies to every full-size world.
    assert!(
        train.steps_per_sec.is_finite() && train.steps_per_sec > 0.0,
        "[{tag}] training made no progress"
    );
    if tag == "10M" {
        assert!(
            rss_ratio < 0.25,
            "[{tag}] mmap RSS ratio {rss_ratio:.2} ≥ 0.25"
        );
    } else {
        assert!(
            rss_ratio < 0.60,
            "[{tag}] mmap RSS ratio {rss_ratio:.2} ≥ 0.60"
        );
    }
    if tag != "smoke" {
        assert!(
            eval.simd_speedup >= 2.0,
            "[{tag}] SIMD speedup {:.2} < 2×",
            eval.simd_speedup
        );
    }

    WorldRow {
        tag: tag.to_string(),
        n_users: cfg.n_users,
        n_items: cfg.n_items,
        avg_degree: cfg.avg_degree,
        n_pairs: build.n_pairs,
        mmap_rss_vs_heap_build: rss_ratio,
        simd_scoring_speedup: eval.simd_speedup,
        build_heap: build,
        write_file: write,
        open_mmap: open,
        train,
        eval,
    }
}

/// `scale`'s flags. It sizes its worlds by `--smoke` and pins its own
/// seed, so the shared bench scale and seed flags are not among them: they
/// exit 2 rather than be ignored.
#[rustfmt::skip]
const FLAGS: [Flag; 5] = [
    Flag::defaulted("--out", "DIR", Kind::Path, "results", "directory for BENCH_scale.json"),
    Flag::switch("--smoke", "the small world only, in seconds"),
    Flag::optional("--leg", "NAME", Kind::Text, "child mode: run one measured stage"),
    Flag::optional("--world", "TAG", Kind::Text, "the child leg's world"),
    Flag::optional("--file", "PATH", Kind::Path, "the child leg's CSR file"),
];

fn main() {
    // `--leg NAME --world TAG --file PATH` is the child-leg mode the parent
    // re-execs itself in.
    let [out, smoke, leg, world, file] = bench::parse_own(&FLAGS);
    if let Some(name) = leg.opt_text() {
        let need = |a: &Arg| {
            a.opt_text()
                .unwrap_or_else(|| bench::usage_error(&format!("{} requires {}", leg.name, a.name)))
        };
        let tag = need(&world);
        let file = PathBuf::from(need(&file));
        match name.as_str() {
            "build" => leg_build(&tag),
            "write" => leg_write(&tag, &file),
            "open" => leg_open(&file),
            "train" => leg_train(&file),
            "eval" => leg_eval(&tag),
            other => bench::usage_error(&format!("unknown leg {other:?}")),
        }
        return;
    }

    let smoke = smoke.on();
    let tags: &[&str] = if smoke { &["smoke"] } else { &["1M", "10M"] };

    let scratch = std::env::temp_dir().join("clapf_scale_bench");
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let worlds: Vec<WorldRow> = tags.iter().map(|t| bench_world(t, &scratch)).collect();
    bench::write_report(
        &out.path().join("BENCH_scale.json"),
        if smoke { "smoke" } else { "full" },
        &ScaleReport { smoke, worlds },
    );
}
