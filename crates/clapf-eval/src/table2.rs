//! Table 2: the main performance comparison.
//!
//! For every dataset and method: fit on each of the protocol's training
//! folds, evaluate on the matching test fold (full ranking of the items
//! unobserved in training), and aggregate `Prec@5`, `Recall@5`, `F1@5`,
//! `1-Call@5`, `NDCG@5`, `MAP`, `MRR` and training time over the folds —
//! exactly the paper's columns.

use crate::methods::evaluate_fitted;
use crate::report::render_table;
use crate::{Method, RunScale};
use clapf_data::split::{Protocol, SplitStrategy};
use clapf_metrics::{Aggregate, EvalConfig};
use serde::Serialize;

/// Aggregated metrics of one method on one dataset (a Table 2 cell group).
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Method name in the paper's notation.
    pub method: String,
    /// `Precision@5`.
    pub prec5: Aggregate,
    /// `Recall@5`.
    pub recall5: Aggregate,
    /// `F1@5`.
    pub f1_5: Aggregate,
    /// `1-Call@5`.
    pub one_call5: Aggregate,
    /// `NDCG@5`.
    pub ndcg5: Aggregate,
    /// Mean Average Precision.
    pub map: Aggregate,
    /// Mean Reciprocal Rank.
    pub mrr: Aggregate,
    /// Mean wall-clock training time in seconds.
    pub train_secs: f64,
}

/// All rows of one dataset.
#[derive(Clone, Debug, Serialize)]
pub struct DatasetResult {
    /// Dataset name.
    pub dataset: String,
    /// One row per method.
    pub rows: Vec<Row>,
}

/// The standard Table 2 method list for a dataset: the nine baselines plus
/// the four CLAPF rows.
pub fn default_methods(dataset: &str, scale: &RunScale) -> Vec<Method> {
    let mut methods = Method::baselines(scale.include_slow);
    methods.extend(Method::clapf_rows(dataset));
    methods
}

/// Runs one method across all folds of one dataset.
pub fn run_method(
    method: &Method,
    folds: &[clapf_data::split::Fold],
    scale: &RunScale,
) -> Row {
    let cfg = EvalConfig::at_5();
    let mut prec = Vec::new();
    let mut rec = Vec::new();
    let mut f1 = Vec::new();
    let mut call = Vec::new();
    let mut ndcg = Vec::new();
    let mut map = Vec::new();
    let mut mrr = Vec::new();
    let mut secs = 0.0;
    for fold in folds {
        let fitted = method.fit(&fold.train, scale, fold.seed);
        secs += fitted.train_time.as_secs_f64();
        let report = evaluate_fitted(fitted.recommender.as_ref(), &fold.train, &fold.test, &cfg);
        let at5 = report.topk[&5];
        prec.push(at5.precision);
        rec.push(at5.recall);
        f1.push(at5.f1);
        call.push(at5.one_call);
        ndcg.push(at5.ndcg);
        map.push(report.map);
        mrr.push(report.mrr);
    }
    Row {
        method: method.name(),
        prec5: Aggregate::of(&prec),
        recall5: Aggregate::of(&rec),
        f1_5: Aggregate::of(&f1),
        one_call5: Aggregate::of(&call),
        ndcg5: Aggregate::of(&ndcg),
        map: Aggregate::of(&map),
        mrr: Aggregate::of(&mrr),
        train_secs: secs / folds.len().max(1) as f64,
    }
}

/// Runs the comparison for every dataset at `scale` with the given methods
/// (or [`default_methods`] when `methods` is `None`). `progress` is invoked
/// with a human-readable line as work completes.
pub fn run(
    scale: &RunScale,
    methods: Option<&[Method]>,
    mut progress: impl FnMut(&str),
) -> Vec<DatasetResult> {
    let mut out = Vec::new();
    for spec in scale.datasets() {
        progress(&format!("dataset {} (generating)", spec.name));
        let data = spec.generate();
        let protocol = Protocol {
            repeats: scale.repeats,
            train_fraction: 0.5,
            strategy: SplitStrategy::GlobalPairs,
            base_seed: scale.seed ^ spec.seed,
        };
        let folds = protocol.folds(&data).expect("datasets are splittable");
        let method_list = match methods {
            Some(m) => m.to_vec(),
            None => default_methods(spec.name, scale),
        };
        let mut rows = Vec::new();
        for method in &method_list {
            let row = run_method(method, &folds, scale);
            progress(&format!(
                "  {} {}: NDCG@5 {:.3} MAP {:.3} ({:.1}s/fold)",
                spec.name, row.method, row.ndcg5.mean, row.map.mean, row.train_secs
            ));
            rows.push(row);
        }
        out.push(DatasetResult {
            dataset: spec.name.to_string(),
            rows,
        });
    }
    out
}

/// Renders one dataset's rows in the paper's column layout.
pub fn render(result: &DatasetResult) -> String {
    let mut body = format!("== {} ==\n", result.dataset);
    body.push_str(&render_table(
        &[
            "Method", "Prec@5", "Recall@5", "F1@5", "1-Call@5", "NDCG@5", "MAP", "MRR", "time(s)",
        ],
        &result
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.method.clone(),
                    r.prec5.to_string(),
                    r.recall5.to_string(),
                    r.f1_5.to_string(),
                    r.one_call5.to_string(),
                    r.ndcg5.to_string(),
                    r.map.to_string(),
                    r.mrr.to_string(),
                    format!("{:.1}", r.train_secs),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_core::ClapfMode;

    /// A minimal end-to-end Table 2 on one tiny dataset with three methods.
    #[test]
    fn smoke_run_produces_sane_rows() {
        let scale = RunScale {
            dataset_shrink: 48,
            repeats: 2,
            dim: 6,
            iterations: 4_000,
            ..RunScale::fast()
        };
        let methods = [
            Method::PopRank,
            Method::Bpr,
            Method::Clapf {
                mode: ClapfMode::Map,
                lambda: 0.4,
                dss: false,
            },
        ];
        // Only the first dataset, to keep the test quick.
        let spec = &scale.datasets()[0];
        let data = spec.generate();
        let protocol = Protocol {
            repeats: scale.repeats,
            train_fraction: 0.5,
            strategy: SplitStrategy::GlobalPairs,
            base_seed: 1,
        };
        let folds = protocol.folds(&data).unwrap();
        let rows: Vec<Row> = methods.iter().map(|m| run_method(m, &folds, &scale)).collect();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.ndcg5.mean >= 0.0 && r.ndcg5.mean <= 1.0, "{}", r.method);
            assert!(r.map.mean > 0.0, "{} has zero MAP", r.method);
            assert_eq!(r.ndcg5.n, 2);
        }
        let rendered = render(&DatasetResult {
            dataset: "ML100K".into(),
            rows,
        });
        assert!(rendered.contains("NDCG@5"));
        assert!(rendered.contains("CLAPF"));
    }
}
