//! Custom CLAPF instantiations: the framework beyond MAP and MRR.
//!
//! The paper's conclusion invites new smoothed listwise metrics to be
//! optimized "with our CLAPF framework". Both published instantiations are
//! linear criteria `R = c_i·f_ui + c_k·f_uk + c_j·f_uj`; this example
//! defines two custom ones, trains each as a `ClapfStep::with_weights`
//! through the shared SGD driver (`clapf::core::train`), and compares all
//! four on the same split.
//!
//! ```sh
//! cargo run --release -p clapf --example custom_criterion
//! ```

use clapf::core::objective::CriterionWeights;
use clapf::core::{train, ClapfConfig, ClapfMode, ClapfStep, FitOptions, Seed};
use clapf::data::split::{split, SplitStrategy};
use clapf::data::synthetic::{generate, WorldConfig};
use clapf::data::UserId;
use clapf::metrics::{evaluate, EvalConfig};
use clapf::UniformSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2024);
    let world = WorldConfig {
        n_users: 250,
        n_items: 400,
        target_pairs: 8_000,
        ..WorldConfig::default()
    };
    let data = generate(&world, &mut rng).expect("generate");
    let s = split(&data, SplitStrategy::GlobalPairs, 0.5, &mut rng).expect("split");

    let lambda = 0.3f32;
    let criteria: Vec<(&str, CriterionWeights)> = vec![
        (
            "CLAPF-MAP (paper)",
            CriterionWeights::from_mode(ClapfMode::Map, lambda),
        ),
        (
            "CLAPF-MRR (paper)",
            CriterionWeights::from_mode(ClapfMode::Mrr, lambda),
        ),
        (
            // Weight both observed items symmetrically against the negative:
            // an AUC-flavoured criterion with a soft listwise tie.
            "CLAPF-SYM (custom)",
            CriterionWeights {
                c_i: 0.5,
                c_k: 0.5,
                c_j: -1.0,
            },
        ),
        (
            // Emphasize the anchor strongly, demote k mildly: between MAP
            // and BPR.
            "CLAPF-SOFT (custom)",
            CriterionWeights {
                c_i: 0.8,
                c_k: 0.1,
                c_j: -0.9,
            },
        ),
    ];

    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "criterion", "NDCG@5", "MAP", "MRR", "AUC"
    );
    let config = ClapfConfig::map(lambda);
    for (name, weights) in criteria {
        let mut step = ClapfStep::with_weights(&config, weights, UniformSampler);
        let (model, report) = train(&s.train, &mut step, Seed::Base(7), FitOptions::default())
            .expect("a fit without checkpoints does no I/O");
        assert!(!report.diverged, "{name} diverged");
        let scorer = |u: UserId, out: &mut Vec<f32>| model.scores_for_user(u, out);
        let eval = evaluate(&scorer, &s.train, &s.test, &EvalConfig::at_5());
        println!(
            "{:<22} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            eval.topk[&5].ndcg,
            eval.map,
            eval.mrr,
            eval.auc
        );
    }
    println!("\n(c_i, c_k, c_j) are the ∂R/∂f coefficients; any ranking-consistent");
    println!("triple — positive total observed weight, negative unobserved weight —");
    println!("defines a valid CLAPF instantiation.");
}
