//! Drives `clapf fit`/`train` end to end: the `--metrics-out` run trace
//! and its `clapf trace` rendering, and a SIGKILL mid-train followed by
//! `--resume`, which must land on exactly the uninterrupted run's result.

mod common;

use common::{clapf_ok, event_name, events, scratch_dir, tiny_dataset, CLAPF};
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn fit_metrics_out_carries_every_event_and_trace_renders_the_stages() {
    let dir = scratch_dir("telemetry");
    let data = tiny_dataset(&dir);
    let jsonl = dir.join("run.jsonl");
    clapf_ok(&[
        "fit", "--data", data.to_str().unwrap(), "--dss", "--dim", "8", "--iterations",
        "20000", "--metrics-out", jsonl.to_str().unwrap(),
    ]);

    // Every line is a JSON event; the full vocabulary is present, with one
    // fit_start/fit_end/eval/summary around the per-epoch events and spans.
    let evs = events(&jsonl);
    let count = |name: &str| evs.iter().filter(|e| event_name(e) == name).count();
    for once in ["fit_start", "fit_end", "eval", "summary"] {
        assert_eq!(count(once), 1, "{once} events");
    }
    assert!(count("epoch") >= 1, "no epoch events");
    assert!(count("span") >= count("epoch"), "fewer spans than epochs");
    assert_eq!(event_name(&evs[0]), "fit_start");
    let stages: Vec<&Value> = evs
        .iter()
        .filter(|e| event_name(e) == "span")
        .map(|e| e.get("stage").expect("span has a stage"))
        .collect();
    assert!(
        stages.contains(&&Value::Str("train.sweep".into())),
        "no train.sweep span: {stages:?}"
    );

    // `clapf trace` validates the file and renders the per-stage table:
    // a header, then one row per stage with a positive count.
    let out = clapf_ok(&["trace", "--file", jsonl.to_str().unwrap()]);
    let text = String::from_utf8(out.stdout).unwrap();
    let table: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("per-stage latency"))
        .skip(2)
        .take_while(|l| !l.trim().is_empty())
        .collect();
    let sweep = table
        .iter()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|cols| cols.first() == Some(&"train.sweep"))
        .unwrap_or_else(|| panic!("no train.sweep row in the per-stage table:\n{text}"));
    assert_eq!(sweep.len(), 5, "stage, count, p50, p95, p99: {sweep:?}");
    let n: usize = sweep[1].parse().expect("count column");
    assert_eq!(n, count("epoch"), "one train.sweep span per epoch");

    std::fs::remove_dir_all(&dir).ok();
}

/// The `eval` event of a run trace with its timing fields removed.
fn eval_result(jsonl: &Path) -> Value {
    let ev = events(jsonl)
        .into_iter()
        .find(|e| event_name(e) == "eval")
        .expect("an eval event");
    let Value::Map(fields) = ev else { unreachable!() };
    Value::Map(
        fields
            .into_iter()
            .filter(|(k, _)| !["ts_ms", "secs", "users_per_sec"].contains(&k.as_str()))
            .collect(),
    )
}

#[test]
fn a_train_killed_mid_run_resumes_to_the_uninterrupted_result() {
    let dir = scratch_dir("crash");
    let data = tiny_dataset(&dir);
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    // Checkpoint every epoch: a long run of short, fsynced epochs.
    let train = |ckpt: &str, metrics: &str| {
        let mut cmd = Command::new(CLAPF);
        cmd.args([
            "train", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations", "300000",
            "--seed", "9", "--checkpoint-dir", &path(ckpt), "--metrics-out", &path(metrics),
        ]);
        cmd
    };

    // Reference: the same crash-safe path, never interrupted.
    let out = train("ckpt_ref", "ref.jsonl").output().expect("reference run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Victim: killed the moment a post-initial checkpoint lands (epoch 0
    // pruned, so at least two later epochs are on disk).
    let mut victim = train("ckpt_kill", "kill.jsonl")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    let ckpts = dir.join("ckpt_kill");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let names: Vec<String> = std::fs::read_dir(&ckpts)
            .map(|d| d.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect())
            .unwrap_or_default();
        let mid_run = names.iter().any(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            && !names.iter().any(|n| n == "ckpt-00000000.json");
        if mid_run || victim.try_wait().unwrap().is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "no mid-run checkpoint within 120 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().ok();
    let status = victim.wait().unwrap();
    assert!(!status.success(), "the victim finished before it could be killed");

    let out = train("ckpt_kill", "resume.jsonl")
        .arg("--resume")
        .output()
        .expect("resumed run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let epoch: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("resumed from checkpoint at epoch "))
        .unwrap_or_else(|| panic!("the run did not resume:\n{stdout}"))
        .trim()
        .parse()
        .unwrap();
    assert!(epoch >= 1, "resumed from the initial checkpoint only");

    assert_eq!(
        eval_result(&dir.join("resume.jsonl")),
        eval_result(&dir.join("ref.jsonl")),
        "the resumed run's held-out metrics diverged from the uninterrupted run's"
    );
    std::fs::remove_dir_all(&dir).ok();
}
