//! The committed result ledgers must be what the code generates today.
//! Table 1 is a pure function of the run scale, and Table 2's metrics and
//! Fig. 4's trajectories of the scale and seed, so any drift means either
//! the code changed what it computes or the committed file went stale.

use clapf_data::split::{Protocol, SplitStrategy};
use clapf_eval::{fig4, table1, table2, Method, RunScale};
use serde::{Serialize, Value};

/// The committed `results/{name}` as text.
fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("committed {path}: {e}"))
}

#[test]
fn committed_table1_fast_matches_a_fresh_run() {
    let committed = committed("table1-fast.json");
    let fresh = serde_json::to_string_pretty(&table1::run(&RunScale::fast())).unwrap() + "\n";
    assert!(
        committed == fresh,
        "results/table1-fast.json is stale; regenerate it with \
         `cargo run --release -p bench --bin table1 -- --fast`.\nfresh:\n{fresh}"
    );
}

/// `v` without its `train_secs` fields: wall-clock time is the one field
/// of a Table 2 row that is not a function of the seed.
fn without_times(v: Value) -> Value {
    match v {
        Value::Map(fields) => Value::Map(
            fields
                .into_iter()
                .filter(|(k, _)| k != "train_secs")
                .map(|(k, v)| (k, without_times(v)))
                .collect(),
        ),
        Value::Seq(items) => Value::Seq(items.into_iter().map(without_times).collect()),
        other => other,
    }
}

/// Rows of one dataset of the committed `table2-fast.json` — Flixter, the
/// smallest world (829 training pairs) — regenerated through
/// `table2::run_method` on the folds `table2::run` draws: the metrics of
/// each row `keep` selects must match the committed ones exactly.
fn check_table2_fast_flixter(keep: fn(&Method) -> bool) {
    let scale = RunScale::fast();
    let spec = scale
        .datasets()
        .into_iter()
        .find(|s| s.name == "Flixter")
        .expect("Flixter is a Table 2 dataset");
    let protocol = Protocol {
        repeats: scale.repeats,
        train_fraction: 0.5,
        strategy: SplitStrategy::GlobalPairs,
        base_seed: scale.seed ^ spec.seed,
    };
    let folds = protocol
        .folds(&spec.generate())
        .expect("Flixter is splittable");
    let methods: Vec<Method> = table2::default_methods(spec.name, &scale)
        .into_iter()
        .filter(keep)
        .collect();
    let names: Vec<String> = methods.iter().map(Method::name).collect();
    let rows: Vec<table2::Row> = methods
        .iter()
        .map(|m| table2::run_method(m, &folds, &scale))
        .collect();
    let fresh = without_times(rows.to_value());

    let all: Value = serde_json::from_str(&committed("table2-fast.json")).expect("JSON");
    let dataset = all
        .as_seq()
        .expect("a list of datasets")
        .iter()
        .find(|d| d.get("dataset").and_then(Value::as_str) == Some(spec.name))
        .expect("Flixter is in table2-fast.json");
    let stored: Vec<Value> = dataset
        .get("rows")
        .and_then(Value::as_seq)
        .expect("rows")
        .iter()
        .filter(|r| {
            names
                .iter()
                .any(|n| r.get("method").and_then(Value::as_str) == Some(n))
        })
        .cloned()
        .collect();
    let stored = without_times(Value::Seq(stored));

    let (fresh, stored) = (
        serde_json::to_string_pretty(&fresh).unwrap(),
        serde_json::to_string_pretty(&stored).unwrap(),
    );
    assert!(
        fresh == stored,
        "results/table2-fast.json (Flixter: {names:?}) is stale; regenerate it with \
         `cargo run --release -p bench --bin table2 -- --fast`.\nfresh:\n{fresh}"
    );
}

fn is_neural(m: &Method) -> bool {
    matches!(m, Method::NeuMf | Method::NeuPr | Method::DeepIcf)
}

// Two tests so the MF and neural rows regenerate in parallel.
#[test]
fn committed_table2_fast_flixter_mf_rows_match_a_fresh_run() {
    check_table2_fast_flixter(|m| !is_neural(m));
}

#[test]
fn committed_table2_fast_flixter_neural_rows_match_a_fresh_run() {
    check_table2_fast_flixter(is_neural);
}

/// One dataset of the committed `fig4-fast.json` — Flixter, the smallest
/// world — regenerated through `fig4::run_spec`: every sampler's curve
/// must match the committed one exactly. Its draws are the DSS sampler's,
/// so this is the end-to-end pin on them. The file holds no wall times.
#[test]
fn committed_fig4_fast_flixter_matches_a_fresh_run() {
    let scale = RunScale::fast();
    let spec = scale
        .datasets()
        .into_iter()
        .find(|s| s.name == "Flixter")
        .expect("Flixter is a Fig. 4 dataset");
    let fresh = fig4::run_spec(&spec, &scale).to_value();

    let all: Value = serde_json::from_str(&committed("fig4-fast.json")).expect("JSON");
    let stored = all
        .as_seq()
        .expect("a list of datasets")
        .iter()
        .find(|d| d.get("dataset").and_then(Value::as_str) == Some(spec.name))
        .expect("Flixter is in fig4-fast.json");

    let (fresh, stored) = (
        serde_json::to_string_pretty(&fresh).unwrap(),
        serde_json::to_string_pretty(stored).unwrap(),
    );
    assert!(
        fresh == stored,
        "results/fig4-fast.json (Flixter) is stale; regenerate it with \
         `cargo run --release -p bench --bin fig4 -- --fast`.\nfresh:\n{fresh}"
    );
}
