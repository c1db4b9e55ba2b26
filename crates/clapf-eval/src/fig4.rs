//! Fig. 4: learning convergence of CLAPF under different samplers.
//!
//! Trains CLAPF-MAP with the four samplers of Sec 6.4.3 — Uniform,
//! Positive(-only), Negative(-only) and full DSS — and records test MAP at
//! regular checkpoints during training.

use crate::report::render_table;
use crate::RunScale;
use clapf_core::{Clapf, ClapfConfig, ClapfMode, FitOptions};
use clapf_data::split::{Protocol, SplitStrategy};
use clapf_data::synthetic::DatasetSpec;
use clapf_data::Interactions;

use clapf_mf::MfModel;
use clapf_sampling::{DssMode, DssSampler, TripleSampler, UniformSampler};
use serde::Serialize;

/// MAP trajectory of one sampler.
///
/// Both the paper's test-MAP curve and the training-set MAP are recorded:
/// the *optimization* acceleration of DSS (finding the triples whose
/// gradient has not vanished, Sec 5.1) shows directly in `train_map`, while
/// whether it transfers to `map` depends on how the held-out positives
/// relate to the model's head — see EXPERIMENTS.md.
#[derive(Clone, Debug, Serialize)]
pub struct Trajectory {
    /// Sampler name ("Uniform", "Positive", "Negative", "DSS").
    pub sampler: String,
    /// SGD step counts at the checkpoints.
    pub steps: Vec<usize>,
    /// Test MAP at each checkpoint.
    pub map: Vec<f64>,
    /// Training-set MAP (full ranking, no exclusions) at each checkpoint.
    pub train_map: Vec<f64>,
}

/// One dataset's convergence plot.
#[derive(Clone, Debug, Serialize)]
pub struct Convergence {
    /// Dataset name.
    pub dataset: String,
    /// One trajectory per sampler.
    pub trajectories: Vec<Trajectory>,
}

/// Number of checkpoints per run.
pub const CHECKPOINTS: usize = 12;

/// Checkpoint evaluations rank the full catalogue for at most this many
/// users (a fixed, deterministic prefix). Trajectories are means over a
/// large fixed user sample, which is what a convergence *curve* needs; the
/// final Table 2 numbers always use every user.
pub const EVAL_USER_CAP: u32 = 500;

/// MAP of the model against the *training* positives, ranking the whole
/// catalogue (no exclusions) — the convergence witness of the CLAPF
/// objective itself.
fn train_set_map(mf: &MfModel, train: &Interactions) -> f64 {
    use clapf_metrics::{average_precision, rank_all};
    let mut scores = Vec::new();
    let mut total = 0.0f64;
    let mut n = 0usize;
    for u in train.users().take(EVAL_USER_CAP as usize) {
        let relevant_items = train.items_of(u);
        if relevant_items.is_empty() {
            continue;
        }
        mf.scores_for_user(u, &mut scores);
        let ranked = rank_all(&scores, |_| true);
        total += average_precision(&ranked, relevant_items.len(), |i| {
            relevant_items.binary_search(&i).is_ok()
        });
        n += 1;
    }
    total / n.max(1) as f64
}

/// Test MAP over the capped user prefix (same cap as [`train_set_map`]).
fn test_set_map(mf: &MfModel, train: &Interactions, test: &Interactions) -> f64 {
    use clapf_metrics::{average_precision, rank_all};
    let mut scores = Vec::new();
    let mut total = 0.0f64;
    let mut n = 0usize;
    for u in test.users().take(EVAL_USER_CAP as usize) {
        let relevant_items = test.items_of(u);
        if relevant_items.is_empty() {
            continue;
        }
        mf.scores_for_user(u, &mut scores);
        let ranked = rank_all(&scores, |i| !train.contains(u, i));
        total += average_precision(&ranked, relevant_items.len(), |i| {
            relevant_items.binary_search(&i).is_ok()
        });
        n += 1;
    }
    total / n.max(1) as f64
}

fn samplers() -> Vec<(&'static str, Box<dyn TripleSampler>)> {
    vec![
        ("Uniform", Box::new(UniformSampler)),
        ("Positive", Box::new(DssSampler::positive_only(DssMode::Map))),
        ("Negative", Box::new(DssSampler::negative_only(DssMode::Map))),
        ("DSS", Box::new(DssSampler::dss(DssMode::Map))),
    ]
}

/// Trains CLAPF-MAP with each sampler on one train/test split and records
/// the MAP trajectory.
pub fn run_dataset(
    dataset: &str,
    train: &Interactions,
    test: &Interactions,
    scale: &RunScale,
    seed: u64,
) -> Convergence {
    let lambda = crate::Method::paper_lambda(dataset, ClapfMode::Map);
    let config = ClapfConfig {
        dim: scale.dim,
        iterations: scale.iterations,
        ..ClapfConfig::map(lambda)
    };
    let iterations = config.resolve_iterations(train.n_pairs());
    let checkpoint_every = (iterations / CHECKPOINTS).max(1);

    let mut trajectories = Vec::new();
    for (name, mut sampler) in samplers() {
        let trainer = Clapf::new(config);
        let mut steps = Vec::new();
        let mut map = Vec::new();
        let mut train_map = Vec::new();
        let mut probe = |step: usize, mf: &MfModel| {
            // The trainer probes once more at the end of the run, which may
            // duplicate the last cadence probe.
            if steps.last() == Some(&step) {
                return;
            }
            steps.push(step);
            map.push(test_set_map(mf, train, test));
            train_map.push(train_set_map(mf, train));
        };
        let opts = FitOptions {
            probe: Some((checkpoint_every, &mut probe)),
            ..FitOptions::default()
        };
        trainer
            .fit_with(train, sampler.as_mut(), seed, opts)
            .expect("a fit without checkpoints does no I/O");
        trajectories.push(Trajectory {
            sampler: name.to_string(),
            steps,
            map,
            train_map,
        });
    }
    Convergence {
        dataset: dataset.to_string(),
        trajectories,
    }
}

/// Runs the convergence experiment on one dataset of `scale`, on the
/// first fold its protocol draws.
pub fn run_spec(spec: &DatasetSpec, scale: &RunScale) -> Convergence {
    let data = spec.generate();
    let protocol = Protocol {
        repeats: 1,
        train_fraction: 0.5,
        strategy: SplitStrategy::GlobalPairs,
        base_seed: scale.seed ^ spec.seed,
    };
    let fold = &protocol.folds(&data).expect("datasets are splittable")[0];
    run_dataset(spec.name, &fold.train, &fold.test, scale, fold.seed)
}

/// Runs the convergence experiment on every dataset at `scale`.
pub fn run(scale: &RunScale, mut progress: impl FnMut(&str)) -> Vec<Convergence> {
    let mut out = Vec::new();
    for spec in scale.datasets() {
        progress(&format!("dataset {}", spec.name));
        let conv = run_spec(&spec, scale);
        for t in &conv.trajectories {
            progress(&format!(
                "  {} {}: final MAP {:.3}",
                spec.name,
                t.sampler,
                t.map.last().copied().unwrap_or(0.0)
            ));
        }
        out.push(conv);
    }
    out
}

/// Renders one dataset's trajectories as two step × sampler tables (test
/// MAP and training MAP).
pub fn render(conv: &Convergence) -> String {
    let steps = &conv.trajectories[0].steps;
    let mut headers: Vec<String> = vec!["step".into()];
    headers.extend(conv.trajectories.iter().map(|t| t.sampler.clone()));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table = |pick: &dyn Fn(&Trajectory) -> &Vec<f64>| -> String {
        let rows: Vec<Vec<String>> = steps
            .iter()
            .enumerate()
            .map(|(row, step)| {
                let mut cells = vec![step.to_string()];
                cells.extend(
                    conv.trajectories
                        .iter()
                        .map(|t| format!("{:.4}", pick(t).get(row).copied().unwrap_or(f64::NAN))),
                );
                cells
            })
            .collect();
        render_table(&headers_ref, &rows)
    };
    format!(
        "== {} — test MAP by training step ==\n{}== {} — train MAP by training step ==\n{}",
        conv.dataset,
        table(&|t| &t.map),
        conv.dataset,
        table(&|t| &t.train_map),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::synthetic::{generate, WorldConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn trajectories_cover_all_samplers() {
        let data = generate(
            &WorldConfig {
                n_users: 40,
                n_items: 60,
                target_pairs: 600,
                ..WorldConfig::default()
            },
            &mut SmallRng::seed_from_u64(1),
        )
        .unwrap();
        let protocol = Protocol {
            repeats: 1,
            train_fraction: 0.5,
            strategy: SplitStrategy::GlobalPairs,
            base_seed: 2,
        };
        let fold = &protocol.folds(&data).unwrap()[0];
        let scale = RunScale {
            dim: 6,
            iterations: 2_400,
            ..RunScale::fast()
        };
        let conv = run_dataset("ML100K", &fold.train, &fold.test, &scale, 3);
        assert_eq!(conv.trajectories.len(), 4);
        let names: Vec<&str> = conv.trajectories.iter().map(|t| t.sampler.as_str()).collect();
        assert_eq!(names, vec!["Uniform", "Positive", "Negative", "DSS"]);
        for t in &conv.trajectories {
            assert_eq!(t.steps.len(), t.map.len());
            assert_eq!(t.steps.len(), t.train_map.len());
            assert!(t.steps.len() >= CHECKPOINTS - 1, "{:?}", t.steps);
            assert!(t.map.iter().all(|m| (0.0..=1.0).contains(m)));
            assert!(t.train_map.iter().all(|m| (0.0..=1.0).contains(m)));
            // Test MAP fluctuates once converged; demand the end stays near
            // the trajectory's peak rather than strict monotonicity.
            let peak = t.map.iter().copied().fold(0.0f64, f64::max);
            assert!(
                *t.map.last().unwrap() >= 0.7 * peak,
                "{} collapsed: {:?}",
                t.sampler,
                t.map
            );
            // The training objective itself must improve.
            assert!(
                t.train_map.last().unwrap() >= t.train_map.first().unwrap(),
                "{} train MAP got worse: {:?}",
                t.sampler,
                t.train_map
            );
        }
        let rendered = render(&conv);
        assert!(rendered.contains("DSS"));
    }
}
