//! The committed Table 1 ledger must be what the code generates today:
//! Table 1 is a pure function of the run scale, so any drift means either
//! the generator changed or the committed file went stale.

use clapf_eval::{table1, RunScale};

#[test]
fn committed_table1_fast_matches_a_fresh_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table1-fast.json");
    let committed = std::fs::read_to_string(path).expect("committed table1-fast.json");
    let fresh = serde_json::to_string_pretty(&table1::run(&RunScale::fast())).unwrap() + "\n";
    assert!(
        committed == fresh,
        "results/table1-fast.json is stale; regenerate it with \
         `cargo run --release -p bench --bin table1 -- --fast`.\nfresh:\n{fresh}"
    );
}
