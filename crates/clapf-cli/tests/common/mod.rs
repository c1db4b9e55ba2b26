//! Helpers the smoke tests share: drive the built `clapf` binary and read
//! its JSON back.

#![allow(dead_code)]

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

pub const CLAPF: &str = env!("CARGO_BIN_EXE_clapf");

pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `clapf` to completion, asserts it succeeded and returns its output.
pub fn clapf_ok(args: &[&str]) -> Output {
    let out = Command::new(CLAPF).args(args).output().expect("run clapf");
    assert!(
        out.status.success(),
        "clapf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `clapf generate --dataset ml100k --shrink 24` into `dir/data.csv`.
pub fn tiny_dataset(dir: &Path) -> PathBuf {
    let data = dir.join("data.csv");
    clapf_ok(&[
        "generate", "--dataset", "ml100k", "--shrink", "24", "--out", data.to_str().unwrap(),
    ]);
    data
}

/// Every event of a `--metrics-out` JSONL run trace, parsed.
pub fn events(jsonl: &Path) -> Vec<Value> {
    std::fs::read_to_string(jsonl)
        .expect("read run trace")
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect()
}

/// The `"ev"` name of an event.
pub fn event_name(ev: &Value) -> &str {
    ev.get("ev")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string ev in {ev:?}"))
}
