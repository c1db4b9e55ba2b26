//! Regenerates Table 2 (the main comparison: 13 methods × 6 datasets ×
//! 7 metrics + training time).
//!
//! Pass `--tune` to select λ for MPR and the CLAPF rows by validation
//! NDCG@5 (the paper's Sec 6.3 protocol) instead of using the paper's
//! transcribed per-dataset values.

use bench::Cli;
use clapf_cli::flags::Flag;
use clapf_data::split::{Protocol, SplitStrategy};
use clapf_eval::{report, table2, tune};

fn main() {
    let cli = Cli::parse_with(&[Flag::switch("--tune", "pick λ by validation NDCG@5")]);
    let tune_flag = cli.has("--tune");
    let results = if tune_flag {
        run_tuned(&cli)
    } else {
        table2::run(&cli.scale, None, |line| eprintln!("{line}"))
    };
    for dataset in &results {
        println!("{}", table2::render(dataset));
    }
    let path = cli.json_path(if tune_flag { "table2-tuned" } else { "table2" });
    report::write_json(&path, &results).expect("write results");
    eprintln!("wrote {}", path.display());
}

fn run_tuned(cli: &Cli) -> Vec<table2::DatasetResult> {
    let scale = &cli.scale;
    let mut out = Vec::new();
    for spec in scale.datasets() {
        eprintln!("dataset {} (generating)", spec.name);
        let data = spec.generate();
        let protocol = Protocol {
            repeats: scale.repeats,
            train_fraction: 0.5,
            strategy: SplitStrategy::GlobalPairs,
            base_seed: scale.seed ^ spec.seed,
        };
        let folds = protocol.folds(&data).expect("datasets are splittable");
        let (methods, reports) = tune::tuned_methods(&folds[0], scale);
        for r in &reports {
            eprintln!(
                "  tuned {} (validation NDCG@5 {:.3})",
                r.selected, r.validation_ndcg5
            );
        }
        let rows = methods
            .iter()
            .map(|m| {
                let row = table2::run_method(m, &folds, scale);
                eprintln!(
                    "  {} {}: NDCG@5 {:.3} MAP {:.3}",
                    spec.name, row.method, row.ndcg5.mean, row.map.mean
                );
                row
            })
            .collect();
        out.push(table2::DatasetResult {
            dataset: spec.name.to_string(),
            rows,
        });
    }
    out
}
