//! End-to-end request tracing tests (ISSUE 8 acceptance):
//!
//! * With 1-in-1 sampling, a `/recommend` cache miss shows up at
//!   `GET /debug/traces` with a per-stage breakdown whose durations sum to
//!   within 10% of the trace's measured wall time.
//! * `GET /debug/slow` surfaces the slowest traces.
//! * Responses are bit-identical with tracing off vs. 1-in-1 sampling.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, start, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn bundle() -> ModelBundle {
    let csv = "\
u1,i0,5\nu1,i1,5\n\
u2,i1,4\nu2,i2,5\n\
u3,i3,5\n\
u4,i0,4\nu4,i5,5\n";
    let loaded = load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut model = MfModel::new(
        loaded.interactions.n_users(),
        loaded.interactions.n_items(),
        2,
        Init::Zeros,
        &mut rng,
    );
    for i in 0..loaded.interactions.n_items() {
        *model.bias_mut(ItemId(i)) = 0.1 * (i as f32 + 1.0);
    }
    ModelBundle::new("trace-fixture".into(), model, loaded.ids, &loaded.interactions)
}

fn temp_bundle_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-serve-trace-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.json");
    bundle().save(&path).unwrap();
    path
}

/// One-shot `GET` through the shared client; returns (status, body).
fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let reply = call(addr, "GET", path, Duration::from_secs(10)).expect("request");
    (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key:?} in {v:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::Int(n) => u64::try_from(*n).expect("non-negative"),
        Value::UInt(n) => *n,
        other => panic!("not an integer: {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn seq(v: &Value) -> &[Value] {
    match v {
        Value::Seq(xs) => xs,
        other => panic!("not an array: {other:?}"),
    }
}

/// Finds the first trace in a `/debug/traces` body containing `stage`.
fn trace_with_stage(body: &str, stage: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(body).expect("debug body is JSON");
    seq(field(&v, "traces"))
        .iter()
        .find(|t| {
            seq(field(t, "spans"))
                .iter()
                .any(|s| str_of(field(s, "stage")) == stage)
        })
        .cloned()
}

/// The acceptance check: the trace's stage durations must tile its wall
/// clock — summing to within 10% of `total_us` (with a 100µs absolute
/// floor: on a toy fixture the whole request takes tens of microseconds,
/// where scheduling noise dwarfs any percentage).
fn assert_spans_tile(trace: &Value) {
    let total = uint(field(trace, "total_us"));
    let spans = seq(field(trace, "spans"));
    assert!(!spans.is_empty(), "trace has no spans");
    let sum: u64 = spans.iter().map(|s| uint(field(s, "dur_us"))).sum();
    let slack = (total / 10).max(100);
    assert!(
        sum + slack >= total && sum <= total + slack,
        "span durations ({sum}µs) do not tile the trace ({total}µs): {trace:?}"
    );
}

#[test]
fn event_loop_miss_trace_breaks_down_per_stage() {
    let stages_expected = [
        "batch.score",
        "req.parse",
        "cache.lookup",
        "batch.queue",
        "batch.wake",
        "req.render",
        "req.write",
    ];
    let path = temp_bundle_file("miss");
    let server = start(
        path,
        ServeConfig {
            trace_sample: 1,
            ..ServeConfig::default()
        },
        Arc::new(Registry::new()),
    )
    .expect("server starts");
    let addr = server.addr();

    let (status, _body) = get(addr, "/recommend/u1?k=3");
    assert_eq!(status, 200);

    // The miss's trace finished when its response flushed; the debug
    // request itself is sampled too, but its own trace is still open.
    let (status, body) = get(addr, "/debug/traces?n=16");
    assert_eq!(status, 200);
    let marker = stages_expected[0];
    let trace = trace_with_stage(&body, marker)
        .unwrap_or_else(|| panic!("no trace with stage {marker:?} in {body}"));
    let spans = seq(field(&trace, "spans"));
    let names: Vec<&str> = spans.iter().map(|s| str_of(field(s, "stage"))).collect();
    for want in stages_expected {
        assert!(names.contains(&want), "missing stage {want:?} in {names:?}");
    }
    assert_spans_tile(&trace);

    // The slow log has seen the same request.
    let (status, body) = get(addr, "/debug/slow");
    assert_eq!(status, 200);
    assert!(
        trace_with_stage(&body, marker).is_some(),
        "slow log misses the request: {body}"
    );

    server.shutdown();
}

/// Tracing must not perturb answers: the same request sequence against the
/// same bundle yields byte-identical bodies with sampling off and 1-in-1.
#[test]
fn responses_are_bit_identical_with_tracing_on() {
    let path = temp_bundle_file("bitid");
    let mut bodies: Vec<Vec<String>> = Vec::new();
    for trace_sample in [0u64, 1u64] {
        let server = start(
            path.clone(),
            ServeConfig {
                trace_sample,
                ..ServeConfig::default()
            },
            Arc::new(Registry::new()),
        )
        .expect("server starts");
        let addr = server.addr();
        let mut run = Vec::new();
        for req in [
            "/recommend/u1?k=3",
            "/recommend/u1?k=3", // cache hit second time
            "/recommend/u2?k=2",
            "/recommend/u3",
            "/healthz",
        ] {
            let (status, body) = get(addr, req);
            assert_eq!(status, 200, "{req}");
            run.push(body);
        }
        server.shutdown();
        bodies.push(run);
    }
    assert_eq!(bodies[0], bodies[1], "tracing changed a response body");
}

/// `/metrics` latency buckets carry OpenMetrics exemplars referencing the
/// sampled traces.
#[test]
fn metrics_buckets_carry_trace_exemplars() {
    let path = temp_bundle_file("exemplar");
    let server = start(
        path,
        ServeConfig {
            trace_sample: 1,
            ..ServeConfig::default()
        },
        Arc::new(Registry::new()),
    )
    .expect("server starts");
    let addr = server.addr();
    let (status, _) = get(addr, "/recommend/u1?k=3");
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains("# {trace_id=\""),
        "no exemplar on any latency bucket:\n{body}"
    );
    server.shutdown();
}
