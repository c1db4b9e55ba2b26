//! The replica half of the fleet rollout protocol (ISSUE 9): staging a
//! candidate bundle off to the side, fingerprint-verified commit, abort
//! with revert to the previous bundle, and adoption of router-propagated
//! trace ids. Tests that stage or commit serialize on
//! `clapf_faults::exclusive()`: failpoints are process-global, so the
//! `serve.bundle.*` faults one test arms would fire in another's server.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_mf::{Init, MfModel};
use clapf_serve::{fingerprint64, start, Conn, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- fixtures

/// Same shape as the integration fixture: item biases order the catalog,
/// `slope` flips between bundles so A and B rank in opposite orders.
fn bundle(slope: f32, tag: &str) -> ModelBundle {
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
        *model.bias_mut(ItemId(i)) = slope * (i as f32 + 1.0);
    }
    ModelBundle::new(format!("fixture-{tag}"), model, loaded.ids, &loaded.interactions)
}

fn temp_bundle_file(tag: &str, b: &ModelBundle) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-serve-bp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.json");
    b.save(&path).unwrap();
    path
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.to_path_buf().into_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn file_fingerprint(path: &Path) -> String {
    format!("{:016x}", fingerprint64(&std::fs::read(path).unwrap()))
}

// ------------------------------------------------------------ HTTP helpers

/// One request through the shared client, optionally carrying a trace id;
/// returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, trace: Option<u64>) -> (u16, String) {
    let mut conn = Conn::open(addr, Duration::from_secs(10)).expect("connect");
    conn.send(method, path, trace).expect("send");
    let reply = conn.recv().expect("response");
    (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path, None)
}

fn post(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "POST", path, None)
}

// ------------------------------------------------------------ JSON helpers

fn json(body: &str) -> Value {
    serde_json::from_str(body).expect("response is JSON")
}

fn start_server(path: PathBuf, config: ServeConfig) -> clapf_serve::ServerHandle {
    start(path, config, Arc::new(Registry::new())).expect("server starts")
}

// ------------------------------------------------------------------- tests

#[test]
fn fingerprints_flow_from_disk_to_healthz_and_probe() {
    let a = bundle(1.0, "fp");
    let path = temp_bundle_file("fp", &a);
    let fp_a = file_fingerprint(&path);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "bare-200 contract: {body}");
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_a.as_str()));

    let (status, body) = get(addr, "/bundle/fingerprint");
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_a.as_str()));
    assert_eq!(json(&body).get("generation").and_then(Value::as_u64), Some(0));
    assert!(body.contains("\"staged\":null"), "nothing staged: {body}");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn stage_commit_flips_and_abort_reverts_fleet_protocol() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "cycle-a");
    let b = bundle(-1.0, "cycle-b");
    let path = temp_bundle_file("cycle", &a);
    let next = with_suffix(&path, ".next");
    b.save(&next).unwrap();
    let fp_a = file_fingerprint(&path);
    let fp_b = file_fingerprint(&next);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    // Phase-2 guard rails before phase 1 ran.
    assert_eq!(post(addr, "/bundle/commit").0, 400, "fingerprint required");
    assert_eq!(
        post(addr, &format!("/bundle/commit?fingerprint={fp_b}")).0,
        409,
        "commit with nothing staged must conflict"
    );

    // Phase 1: stage loads + validates off to the side; serving unchanged.
    let (status, body) = post(addr, "/bundle/stage");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_b.as_str()));
    let (_, probe) = get(addr, "/bundle/fingerprint");
    assert_eq!(json(&probe).get("staged").and_then(Value::as_str), Some(fp_b.as_str()));
    assert_eq!(
        json(&probe).get("fingerprint").and_then(Value::as_str),
        Some(fp_a.as_str()),
        "live model untouched",
    );
    let (_, r) = get(addr, "/recommend/u3?k=4");
    assert_eq!(json(&r).get("items"), Some(&a.recommend_raw("u3", 4).unwrap().to_value()));

    // A commit naming the wrong fingerprint (torn-rollout guard) conflicts.
    assert_eq!(
        post(addr, &format!("/bundle/commit?fingerprint={fp_a}")).0,
        409
    );

    // Phase 2: commit flips to the staged bundle under a fresh generation.
    let (status, body) = post(addr, &format!("/bundle/commit?fingerprint={fp_b}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("generation").and_then(Value::as_u64), Some(1));
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_b.as_str()));
    let (_, health) = get(addr, "/healthz");
    assert_eq!(json(&health).get("fingerprint").and_then(Value::as_str), Some(fp_b.as_str()));
    let (_, r) = get(addr, "/recommend/u3?k=4");
    assert_eq!(json(&r).get("items"), Some(&b.recommend_raw("u3", 4).unwrap().to_value()));
    assert_eq!(json(&r).get("generation").and_then(Value::as_u64), Some(1));
    // Disk state after commit: live path holds B, `.prev` preserves A.
    assert_eq!(file_fingerprint(&path), fp_b);
    assert_eq!(file_fingerprint(&with_suffix(&path, ".prev")), fp_a);
    assert!(!next.exists(), ".next consumed by the commit rename");

    // Abort naming the now-live fingerprint reverts to the previous bundle
    // under a fresh generation (never a reused one — cache coherence).
    let (status, body) = post(addr, &format!("/bundle/abort?fingerprint={fp_b}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_a.as_str()));
    assert_eq!(json(&body).get("generation").and_then(Value::as_u64), Some(2));
    assert_eq!(file_fingerprint(&path), fp_a, "disk restored");
    let (_, r) = get(addr, "/recommend/u3?k=4");
    assert_eq!(json(&r).get("items"), Some(&a.recommend_raw("u3", 4).unwrap().to_value()));
    assert_eq!(json(&r).get("generation").and_then(Value::as_u64), Some(2));

    // An abort naming a fingerprint that is neither staged nor live is a
    // no-op acknowledgement — it must not revert anything.
    let (status, body) = post(addr, "/bundle/abort?fingerprint=dead");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("fingerprint").and_then(Value::as_str), Some(fp_a.as_str()));

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn stage_without_next_file_rejects_and_keeps_serving() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "nonext");
    let path = temp_bundle_file("nonext", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    assert_eq!(post(addr, "/bundle/stage").0, 500);
    let (status, _) = get(addr, "/recommend/u1?k=3");
    assert_eq!(status, 200, "failed stage must not disturb serving");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn stage_and_commit_failpoints_fail_clean_and_retry() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "fault-a");
    let b = bundle(-1.0, "fault-b");
    let path = temp_bundle_file("fault", &a);
    b.save(&with_suffix(&path, ".next")).unwrap();
    let fp_b = file_fingerprint(&with_suffix(&path, ".next"));
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    clapf_faults::arm_nth("serve.bundle.stage", clapf_faults::Fault::Io, 0, Some(1));
    assert_eq!(post(addr, "/bundle/stage").0, 500);
    assert!(clapf_faults::hits("serve.bundle.stage") >= 1);
    assert_eq!(post(addr, "/bundle/stage").0, 200, "stage retries clean");

    clapf_faults::arm_nth("serve.bundle.commit", clapf_faults::Fault::Io, 0, Some(1));
    assert_eq!(
        post(addr, &format!("/bundle/commit?fingerprint={fp_b}")).0,
        500
    );
    // The staged bundle survives a failed commit, so the driver can retry.
    let (_, probe) = get(addr, "/bundle/fingerprint");
    assert_eq!(json(&probe).get("staged").and_then(Value::as_str), Some(fp_b.as_str()));
    assert_eq!(
        post(addr, &format!("/bundle/commit?fingerprint={fp_b}")).0,
        200
    );
    clapf_faults::reset();

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn propagated_trace_ids_are_adopted_but_never_force_tracing() {
    let a = bundle(1.0, "traceid");
    let path = temp_bundle_file("traceid", &a);

    // Tracing on: the router-propagated id shows up verbatim in the ring.
    let server = start_server(
        path.clone(),
        ServeConfig {
            trace_sample: 1,
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    let (status, _) = http(
        addr,
        "GET",
        "/recommend/u1?k=3",
        Some(0xabcd_ef01_2345_6789),
    );
    assert_eq!(status, 200);
    let (_, traces) = get(addr, "/debug/traces?n=8");
    assert!(
        traces.contains("abcdef0123456789"),
        "adopted id missing from /debug/traces: {traces}"
    );
    server.shutdown();

    // Tracing off: the header must not conjure traces out of thin air.
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();
    let (status, _) = http(
        addr,
        "GET",
        "/recommend/u1?k=3",
        Some(0xabcd_ef01_2345_6789),
    );
    assert_eq!(status, 200);
    let (_, traces) = get(addr, "/debug/traces?n=8");
    assert!(
        !traces.contains("abcdef0123456789"),
        "id adopted with tracing disabled: {traces}"
    );
    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
