//! Smoke runs of the bench binaries that assert their own gates, driven
//! through the built binaries; the reports they write are parsed, not
//! grepped.

use serde::Value;
use std::process::Command;

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

/// `scale --smoke`: a streaming build, a CSR file, an mmap open, a
/// file-backed fit and the SIMD eval on the small world. The binary
/// asserts the gates itself; the report must carry a smoke row whose
/// numbers pass them too.
#[test]
fn scale_smoke_writes_a_passing_smoke_row() {
    let out_dir = std::env::temp_dir().join(format!("clapf-scale-smoke-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_scale"))
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run scale --smoke");
    assert!(
        out.status.success(),
        "scale --smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let path = out_dir.join("BENCH_scale.json");
    let text = std::fs::read_to_string(&path).expect("scale --smoke writes BENCH_scale.json");
    std::fs::remove_dir_all(&out_dir).ok();
    let report: Value = serde_json::from_str(&text).expect("BENCH_scale.json is JSON");
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
