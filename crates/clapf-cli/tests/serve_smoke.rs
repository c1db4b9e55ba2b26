//! Drives the built `clapf` binary end to end: generate a tiny dataset,
//! `fit --save` a model, `serve` it on an ephemeral port, query it over
//! HTTP and drain it with `POST /shutdown`. Responses are parsed (JSON,
//! Prometheus text), not pattern-matched.

mod common;

use common::{clapf_ok, field, scratch_dir, tiny_dataset, CLAPF};
use serde::Value;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Duration;

/// One-shot request through the shared client; returns (status, body).
fn http(addr: &str, method: &str, path: &str) -> (u16, String) {
    let addr = addr.parse().expect("socket address");
    let reply = clapf_serve::call(addr, method, path, Duration::from_secs(10)).expect("request");
    (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
}

/// The value of one unlabelled sample in a Prometheus text dump.
fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

fn fit_tiny_model(dir: &Path) -> (PathBuf, String) {
    let data = tiny_dataset(dir);
    let model = dir.join("model.json");
    clapf_ok(&[
        "fit", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations", "20000",
        "--save", model.to_str().unwrap(),
    ]);
    let csv = std::fs::read_to_string(&data).unwrap();
    let user = csv.lines().nth(1).unwrap().split(',').next().unwrap().to_string();
    (model, user)
}

/// A running `clapf serve`, with its stdout pipe kept open until it exits
/// so its later lines still land.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts `clapf serve --load model --addr 127.0.0.1:0 {extra}` and
    /// waits for its port announcement.
    fn start(model: &Path, extra: &[&str]) -> Server {
        let mut child = Command::new(CLAPF)
            .args([
                "serve",
                "--load",
                model.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn clapf serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read server stdout");
            assert!(n > 0, "server exited before announcing its port");
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                break addr.to_string();
            }
        };
        Server {
            child,
            stdout,
            addr,
        }
    }

    /// `POST /shutdown`, then the exit status and the rest of stdout.
    fn shutdown(mut self) -> (ExitStatus, String) {
        let (status, body) = http(&self.addr, "POST", "/shutdown");
        assert_eq!(status, 200, "{body}");
        let exit = self.child.wait().expect("wait for clapf serve");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        (exit, rest)
    }
}

/// The `/recommend` item ids of a response body, checked to be 1..=k.
fn recommended_items(body: &str, k: usize) -> Vec<String> {
    let rec: Value = serde_json::from_str(body).expect("/recommend is JSON");
    match field(&rec, "items") {
        Value::Seq(items) => {
            assert!((1..=k).contains(&items.len()), "{body}");
            items
                .iter()
                .map(|i| match i {
                    Value::Str(s) => s.clone(),
                    other => panic!("item {other:?} is not a string: {body}"),
                })
                .collect()
        }
        other => panic!("items is not an array: {other:?}"),
    }
}

#[test]
fn serve_answers_health_recommend_and_metrics_then_drains() {
    let dir = scratch_dir("serve");
    let (model, user) = fit_tiny_model(&dir);
    let server = Server::start(&model, &[]);
    let addr = server.addr.clone();

    let (status, body) = http(&addr, "GET", "/healthz");
    assert_eq!(status, 200, "{body}");
    let health: Value = serde_json::from_str(&body).expect("/healthz is JSON");
    assert_eq!(field(&health, "status"), &Value::Str("ok".into()), "{body}");

    let (status, body) = http(&addr, "GET", &format!("/recommend/{user}?k=5"));
    assert_eq!(status, 200, "{body}");
    recommended_items(&body, 5);

    let (status, text) = http(&addr, "GET", "/metrics");
    assert_eq!(status, 200, "{text}");
    let requests = prometheus_value(&text, "serve_recommend_requests")
        .unwrap_or_else(|| panic!("no serve_recommend_requests sample in {text}"));
    assert!(requests >= 1.0, "serve_recommend_requests = {requests}");

    let (exit, rest) = server.shutdown();
    assert_eq!(exit.code(), Some(0), "clapf serve exited with {exit}");
    assert!(rest.contains("server drained and stopped"), "{rest}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_the_retired_batch_hold_flag_with_exit_2() {
    // Flags are checked before the bundle is opened, so no model is needed.
    let out = Command::new(CLAPF)
        .args(["serve", "--load", "absent.json", "--batch-hold-us", "100"])
        .output()
        .expect("run clapf serve");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"--batch-hold-us\""), "{stderr}");
}

#[test]
fn sampled_traces_reach_debug_endpoints_and_metrics_exemplars() {
    let dir = scratch_dir("trace");
    let (model, user) = fit_tiny_model(&dir);
    let server = Server::start(&model, &["--trace-sample", "1"]);
    let addr = server.addr.clone();

    let (status, body) = http(&addr, "GET", &format!("/recommend/{user}?k=5"));
    assert_eq!(status, 200, "{body}");
    recommended_items(&body, 5);

    // The sampled miss shows up with its per-stage span breakdown.
    let (status, body) = http(&addr, "GET", "/debug/traces?n=8");
    assert_eq!(status, 200, "{body}");
    let traces: Value = serde_json::from_str(&body).expect("/debug/traces is JSON");
    let Value::Seq(traces) = field(&traces, "traces") else {
        panic!("traces is not an array: {body}")
    };
    assert!(!traces.is_empty(), "{body}");
    let stages: Vec<&Value> = traces
        .iter()
        .flat_map(|t| match field(t, "spans") {
            Value::Seq(spans) => spans.iter().map(|s| field(s, "stage")).collect::<Vec<_>>(),
            other => panic!("spans is not an array: {other:?}"),
        })
        .collect();
    assert!(
        stages.contains(&&Value::Str("cache.lookup".into())),
        "{body}"
    );
    let ids: Vec<String> = traces
        .iter()
        .map(|t| match field(t, "id") {
            Value::Str(id) => id.clone(),
            other => panic!("trace id {other:?} is not a string"),
        })
        .collect();

    let (status, body) = http(&addr, "GET", "/debug/slow");
    assert_eq!(status, 200, "{body}");
    let slow: Value = serde_json::from_str(&body).expect("/debug/slow is JSON");
    let Value::Seq(slow) = field(&slow, "traces") else {
        panic!("traces is not an array: {body}")
    };
    let total = slow.first().map(|t| field(t, "total_us"));
    assert!(
        matches!(
            total,
            Some(Value::Int(_) | Value::UInt(_) | Value::Float(_))
        ),
        "{body}"
    );

    // Latency buckets carry OpenMetrics exemplars naming a listed trace.
    let (status, text) = http(&addr, "GET", "/metrics");
    assert_eq!(status, 200, "{text}");
    let exemplars: Vec<&str> = text
        .lines()
        .filter_map(|l| {
            l.split_once("# {trace_id=\"")?
                .1
                .split_once('"')
                .map(|(id, _)| id)
        })
        .collect();
    assert!(!exemplars.is_empty(), "no exemplar in {text}");
    assert!(
        exemplars.iter().any(|id| ids.iter().any(|t| t == id)),
        "{exemplars:?} vs {ids:?}"
    );

    let (exit, _) = server.shutdown();
    assert_eq!(exit.code(), Some(0), "clapf serve exited with {exit}");
    std::fs::remove_dir_all(&dir).ok();
}
