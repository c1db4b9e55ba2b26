//! Runs the benchmark binary end to end on a seed other than the default
//! and checks that every correctness check passes.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "perfbench {args:?} failed\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (last.starts_with("{\"correct\":true,"), last)
}

// The runs measure timing, so they share one test and run one after the
// other rather than on parallel test threads.
#[test]
fn workloads_pass_every_check_on_a_second_seed() {
    let (correct, last) = run(&[
        "--workload",
        "train_dss",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(correct, "{last}");
    assert!(last.contains("\"failed\":0,"), "{last}");
    for metric in [
        "setup_s",
        "ops_per_s",
        "p50_ms",
        "p90_ms",
        "peak_rss_mb",
        "ok_ratio",
        "holdout_map",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} missing: {last}"
        );
    }

    let (correct, last) = run(&[
        "--workload",
        "train_dss",
        "--seed",
        "2",
        "--seconds",
        "1",
        "--trace",
        "1",
    ]);
    assert!(correct, "{last}");
    assert!(last.contains("\"core.sweep_ns_per_step\""), "{last}");

    let (correct, last) = run(&[
        "--workload",
        "fleet_hot",
        "--seed",
        "2",
        "--seconds",
        "4",
        "--trace",
        "1",
    ]);
    assert!(correct, "{last}");
    assert!(last.contains("\"clapf-fleet.hop_us\""), "{last}");
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
