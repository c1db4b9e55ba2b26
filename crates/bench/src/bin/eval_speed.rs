//! Sort-free ranking-engine speedup over the retained full-sort evaluator,
//! on an MF-backed scorer across a users × items grid at d = 32. Asserts
//! the two engines return *equal* reports (the bit-identity contract) and
//! emits `results/BENCH_eval.json` so the perf trajectory is
//! machine-readable across PRs.
//!
//! Speedup is hardware-bound; the report's provenance records the core
//! count so numbers from a small container are not mistaken for a
//! regression.

use bench::timing::interleave;
use bench::Cli;
use clapf_data::{Interactions, InteractionsBuilder, ItemId, UserId};
use clapf_metrics::{evaluate_serial, evaluate_serial_naive, EvalConfig};
use clapf_mf::{Init, MfModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct EvalRow {
    n_users: u32,
    n_items: u32,
    naive_secs: f64,
    sortfree_secs: f64,
    speedup: f64,
    users_per_sec: f64,
}

#[derive(Serialize)]
struct EvalSpeedReport {
    dim: usize,
    rows: Vec<EvalRow>,
}

/// Deterministic split: 8 train + 4 test items per user, strided so every
/// user touches a different slice of the catalogue.
fn interactions(n_users: u32, n_items: u32) -> (Interactions, Interactions) {
    let mut tr = InteractionsBuilder::new(n_users, n_items);
    let mut te = InteractionsBuilder::new(n_users, n_items);
    for u in 0..n_users {
        for t in 0..8u32 {
            tr.push(UserId(u), ItemId((u * 13 + t * 97) % n_items)).ok();
        }
        for t in 0..4u32 {
            te.push(UserId(u), ItemId((u * 29 + t * 53 + 7) % n_items)).ok();
        }
    }
    (tr.build().unwrap(), te.build().unwrap())
}

fn main() {
    let cli = Cli::parse();
    let dim = 32usize;
    let runs = 3usize;
    let grid: &[(u32, u32)] = &[(500, 5_000), (1_000, 10_000), (2_000, 20_000)];

    let mut rows = Vec::new();
    for &(n_users, n_items) in grid {
        let mut rng = SmallRng::seed_from_u64(cli.scale.seed);
        let model = MfModel::new(n_users, n_items, dim, Init::default(), &mut rng);
        let (train, test) = interactions(n_users, n_items);
        let cfg = EvalConfig::default();

        // The two engines must agree exactly before their times mean anything.
        let fast = evaluate_serial(&model, &train, &test, &cfg);
        let naive = evaluate_serial_naive(&model, &train, &test, &cfg);
        assert_eq!(fast, naive, "engines disagree at {n_users}×{n_items}");

        // Best-of-N wall time per engine, the runs interleaved so drift
        // hits both engines alike.
        let secs = interleave(
            runs,
            &mut [
                &mut || drop(black_box(evaluate_serial_naive(&model, &train, &test, &cfg))),
                &mut || drop(black_box(evaluate_serial(&model, &train, &test, &cfg))),
            ],
        );
        let best = |lane: &[f64]| lane.iter().copied().fold(f64::INFINITY, f64::min);
        let (naive_secs, sortfree_secs) = (best(&secs[0]), best(&secs[1]));
        let speedup = naive_secs / sortfree_secs;
        let users_per_sec = fast.n_users as f64 / sortfree_secs;
        eprintln!(
            "{n_users} users × {n_items} items: naive {naive_secs:.3}s, \
             sortfree {sortfree_secs:.3}s ({speedup:.2}×, {users_per_sec:.0} users/sec)"
        );
        rows.push(EvalRow {
            n_users,
            n_items,
            naive_secs,
            sortfree_secs,
            speedup,
            users_per_sec,
        });
    }

    cli.write_report("eval", &EvalSpeedReport { dim, rows });
}
