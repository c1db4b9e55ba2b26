//! Sampler convergence study (a miniature of the paper's Fig. 4).
//!
//! Trains CLAPF-MAP four times with the samplers of Sec 6.4.3 — Uniform,
//! Positive-only, Negative-only and full DSS — and prints the test-MAP
//! trajectory of each, demonstrating the DSS speed-up.
//!
//! ```sh
//! cargo run --release -p clapf --example sampler_ablation
//! ```

use clapf::core::{Clapf, ClapfConfig, FitOptions};
use clapf::data::split::{split, SplitStrategy};
use clapf::data::synthetic::{generate, WorldConfig};
use clapf::data::UserId;
use clapf::metrics::{evaluate, EvalConfig};
use clapf::mf::MfModel;
use clapf::{DssMode, DssSampler, TripleSampler, UniformSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(99);
    let world = WorldConfig {
        n_users: 250,
        n_items: 400,
        target_pairs: 7_000,
        ..WorldConfig::default()
    };
    let data = generate(&world, &mut rng).expect("generate");
    let s = split(&data, SplitStrategy::GlobalPairs, 0.5, &mut rng).expect("split");

    let iterations = 40_000usize;
    let checkpoint = iterations / 8;
    let config = ClapfConfig {
        iterations,
        ..ClapfConfig::map(0.4)
    };

    let samplers: Vec<(&str, Box<dyn TripleSampler>)> = vec![
        ("Uniform", Box::new(UniformSampler)),
        ("Positive", Box::new(DssSampler::positive_only(DssMode::Map))),
        ("Negative", Box::new(DssSampler::negative_only(DssMode::Map))),
        ("DSS", Box::new(DssSampler::dss(DssMode::Map))),
    ];

    println!("test MAP by SGD step (CLAPF-MAP, λ=0.4):\n");
    print!("{:>10}", "step");
    for (name, _) in &samplers {
        print!("{name:>10}");
    }
    println!();

    let mut trajectories: Vec<Vec<(usize, f64)>> = Vec::new();
    for (_, mut sampler) in samplers {
        let trainer = Clapf::new(config);
        let mut traj = Vec::new();
        let mut probe = |step: usize, mf: &MfModel| {
            if traj.last().map(|&(s, _)| s) == Some(step) {
                return;
            }
            let scorer = |u: UserId, out: &mut Vec<f32>| mf.scores_for_user(u, out);
            let report = evaluate(&scorer, &s.train, &s.test, &EvalConfig::at_5());
            traj.push((step, report.map));
        };
        let opts = FitOptions {
            probe: Some((checkpoint, &mut probe)),
            ..FitOptions::default()
        };
        // Seed 7: the same stream for all samplers.
        trainer
            .fit_with(&s.train, sampler.as_mut(), 7, opts)
            .expect("a fit without checkpoints does no I/O");
        trajectories.push(traj);
    }

    let n_rows = trajectories[0].len();
    for row in 0..n_rows {
        print!("{:>10}", trajectories[0][row].0);
        for traj in &trajectories {
            print!("{:>10.4}", traj[row].1);
        }
        println!();
    }

    let finals: Vec<f64> = trajectories.iter().map(|t| t.last().unwrap().1).collect();
    println!(
        "\nfinal MAP — Uniform {:.4}, Positive {:.4}, Negative {:.4}, DSS {:.4}",
        finals[0], finals[1], finals[2], finals[3]
    );
}
