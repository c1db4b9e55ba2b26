//! Drives the built `clapf` binary end to end: generate a tiny dataset,
//! `fit --save` a model, `serve` it on an ephemeral port, query it over
//! HTTP and drain it with `POST /shutdown`. Responses are parsed (JSON,
//! Prometheus text), not pattern-matched.

mod common;

use common::{clapf_ok, field, scratch_dir, tiny_dataset, CLAPF};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// One `Connection: close` request; returns (status, body).
fn http(addr: &str, method: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "{method} {path} HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
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

#[test]
fn serve_answers_health_recommend_and_metrics_then_drains() {
    let dir = scratch_dir("serve");
    let (model, user) = fit_tiny_model(&dir);

    let mut server = Command::new(CLAPF)
        .args(["serve", "--load", model.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn clapf serve");
    // Keep the pipe open until the server exits, so later lines still land.
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before announcing its port");
        if let Some(addr) = line.trim().strip_prefix("listening on http://") {
            break addr.to_string();
        }
    };

    let (status, body) = http(&addr, "GET", "/healthz");
    assert_eq!(status, 200, "{body}");
    let health: Value = serde_json::from_str(&body).expect("/healthz is JSON");
    assert_eq!(field(&health, "status"), &Value::Str("ok".into()), "{body}");

    let (status, body) = http(&addr, "GET", &format!("/recommend/{user}?k=5"));
    assert_eq!(status, 200, "{body}");
    let rec: Value = serde_json::from_str(&body).expect("/recommend is JSON");
    match field(&rec, "items") {
        Value::Seq(items) => {
            assert!((1..=5).contains(&items.len()), "{body}");
            assert!(items.iter().all(|i| matches!(i, Value::Str(_))), "{body}");
        }
        other => panic!("items is not an array: {other:?}"),
    }

    let (status, text) = http(&addr, "GET", "/metrics");
    assert_eq!(status, 200, "{text}");
    let requests = prometheus_value(&text, "serve_recommend_requests")
        .unwrap_or_else(|| panic!("no serve_recommend_requests sample in {text}"));
    assert!(requests >= 1.0, "serve_recommend_requests = {requests}");

    let (status, body) = http(&addr, "POST", "/shutdown");
    assert_eq!(status, 200, "{body}");
    let exit = server.wait().expect("wait for clapf serve");
    assert_eq!(exit.code(), Some(0), "clapf serve exited with {exit}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
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
