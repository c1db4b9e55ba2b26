//! Hogwild training-throughput scaling: steps/sec of `Clapf::fit_with`
//! at 1/2/4/8 worker threads against the serial `fit`, on the ML100K
//! stand-in world. Emits `results/BENCH_train_scaling.json` so the perf
//! trajectory is machine-readable across PRs.
//!
//! Speedup is hardware-bound: the report's provenance records the core
//! count so a ratio measured on a small container is not mistaken for a
//! regression.

use bench::fixture::ml100k_standin;
use bench::Cli;
use clapf_core::{Clapf, ClapfConfig, FitOptions, ParallelConfig};
use clapf_sampling::UniformSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct ScalingRow {
    threads: usize,
    steps: usize,
    elapsed_secs: f64,
    steps_per_sec: f64,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct ScalingReport {
    world: String,
    n_users: u32,
    n_items: u32,
    n_pairs: usize,
    dim: usize,
    serial_steps_per_sec: f64,
    rows: Vec<ScalingRow>,
}

fn main() {
    let cli = Cli::parse();
    let data = ml100k_standin();
    let dim = 20;
    // Enough epochs that thread startup/barrier cost is amortized but a
    // full sweep still takes seconds, not minutes.
    let steps = 50 * data.n_pairs();
    let config = ClapfConfig {
        dim,
        iterations: steps,
        ..ClapfConfig::map(0.4)
    };

    eprintln!(
        "scaling world: {} users × {} items, {} pairs, {} steps per run",
        data.n_users(),
        data.n_items(),
        data.n_pairs(),
        steps
    );

    let serial_secs = {
        let trainer = Clapf::new(config);
        let mut rng = SmallRng::seed_from_u64(2);
        let (model, report) = trainer.fit(&data, &mut UniformSampler, &mut rng);
        black_box(model.mf.params_sq_norm());
        report.elapsed.as_secs_f64()
    };
    let serial_sps = steps as f64 / serial_secs;
    eprintln!("serial: {serial_sps:.0} steps/sec ({serial_secs:.2}s)");

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let trainer = Clapf::new(ClapfConfig {
            parallel: ParallelConfig {
                threads,
                chunk_size: 0,
            },
            ..config
        });
        let (model, fit_report) = trainer
            .fit_with(&data, &mut UniformSampler, 2, FitOptions::default())
            .expect("a fit without checkpoints does no I/O");
        black_box(model.mf.params_sq_norm());
        assert!(!fit_report.diverged, "parallel fit diverged at {threads} threads");
        let secs = fit_report.elapsed.as_secs_f64();
        let sps = steps as f64 / secs;
        eprintln!(
            "threads={threads}: {sps:.0} steps/sec ({secs:.2}s, {:.2}× serial)",
            sps / serial_sps
        );
        rows.push(ScalingRow {
            threads,
            steps,
            elapsed_secs: secs,
            steps_per_sec: sps,
            speedup_vs_serial: sps / serial_sps,
        });
    }

    let out = ScalingReport {
        world: "ml100k-standin".to_string(),
        n_users: data.n_users(),
        n_items: data.n_items(),
        n_pairs: data.n_pairs(),
        dim,
        serial_steps_per_sec: serial_sps,
        rows,
    };
    cli.write_report("train_scaling", &out);
}
