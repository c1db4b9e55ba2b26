//! Smoke runs of the bench binaries that assert their own gates, driven
//! through the built binaries; the reports they write are parsed, not
//! grepped.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `v[key]`, failing the test with the key's name when it is missing.
fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("report has no {key:?}"))
}

fn num(v: &Value, key: &str) -> f64 {
    field(v, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key:?} is not a number"))
}

/// A fresh scratch directory for one smoke's report.
fn out_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clapf-{tag}-smoke-{}", std::process::id()))
}

/// Runs a bench binary with `args` plus `--out dir`, its output going to
/// `dir/log` — a file, not a pipe, so a child it leaves running cannot
/// hold this test open — and returns its report `dir/BENCH_{report}.json`.
/// Panics with the log when the binary fails.
fn run_to_report(exe: &str, args: &[&std::ffi::OsStr], dir: &Path, report: &str) -> Value {
    std::fs::create_dir_all(dir).unwrap();
    let log_path = dir.join("log");
    let log = std::fs::File::create(&log_path).unwrap();
    let status = Command::new(exe)
        .args(args)
        .arg("--out")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(log.try_clone().unwrap())
        .stderr(log)
        .status()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    let log = std::fs::read_to_string(&log_path).unwrap_or_default();
    assert!(status.success(), "{exe} failed ({status}):\n{log}");
    let path = dir.join(format!("BENCH_{report}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}\n{log}", path.display()));
    std::fs::remove_dir_all(dir).ok();
    serde_json::from_str(&text).expect("the report is JSON")
}

/// The `clapf` binary of this build: `target/<profile>/clapf`, beside the
/// `deps/` directory this test runs from. A workspace `cargo test` builds
/// it for the CLI's own tests.
fn clapf_binary() -> PathBuf {
    let me = std::env::current_exe().unwrap();
    let exe = me.parent().and_then(Path::parent).unwrap().join("clapf");
    assert!(
        exe.is_file(),
        "{} is missing: build it first (cargo build -p clapf-cli)",
        exe.display()
    );
    exe
}

/// `scale --smoke`: a streaming build, a CSR file, an mmap open, a
/// file-backed fit and the SIMD eval on the small world. The binary
/// asserts the gates itself; the report must carry a smoke row whose
/// numbers pass them too.
#[test]
fn scale_smoke_writes_a_passing_smoke_row() {
    let report = run_to_report(
        env!("CARGO_BIN_EXE_scale"),
        &["--smoke".as_ref()],
        &out_dir("scale"),
        "scale",
    );
    assert!(
        field(&report, "provenance").get("commit").is_some(),
        "no provenance"
    );
    assert_eq!(field(&report, "smoke").as_bool(), Some(true));
    let worlds = field(&report, "worlds").as_seq().expect("worlds is a list");
    let row = worlds
        .iter()
        .find(|w| w.get("tag").and_then(Value::as_str) == Some("smoke"))
        .expect("the report has a smoke row");

    let steps_per_sec = num(field(row, "train"), "steps_per_sec");
    assert!(
        steps_per_sec.is_finite() && steps_per_sec > 0.0,
        "training made no progress: {steps_per_sec}"
    );
    let rss_ratio = num(row, "mmap_rss_vs_heap_build");
    assert!(rss_ratio < 0.60, "mmap RSS ratio {rss_ratio:.2} ≥ 0.60");
    let pairs = num(row, "n_pairs");
    assert!(pairs > 0.0);
    assert_eq!(
        num(field(row, "write_file"), "n_pairs"),
        pairs,
        "file and heap disagree"
    );
}

/// `chaos --smoke`: a seeded fault schedule (kill, hang, slow-read, torn
/// commit, heartbeat blackhole) against a router and two `clapf serve`
/// replicas under load. The binary asserts the resilience invariants;
/// the report must show them held and the hang and slow-read events'
/// hedges paying off.
#[test]
fn chaos_smoke_holds_the_invariants_and_hedges_win() {
    let clapf = clapf_binary();
    let report = run_to_report(
        env!("CARGO_BIN_EXE_chaos"),
        &["--smoke".as_ref(), "--clapf".as_ref(), clapf.as_os_str()],
        &out_dir("chaos"),
        "fleet_chaos",
    );
    let failures = field(&report, "failures");
    assert_eq!(field(&report, "pass").as_bool(), Some(true), "{failures:?}");
    let invariants = field(&report, "invariants");
    assert_eq!(num(invariants, "mixed_generation_responses"), 0.0);
    assert_eq!(num(invariants, "untyped_errors"), 0.0);
    assert!(num(&report, "hedge_fired") >= 1.0, "no hedge fired");
    assert!(num(&report, "hedge_wins") >= 1.0, "no hedge won");
}
