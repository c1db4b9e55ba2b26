//! End-to-end tests: real servers on ephemeral ports, real TCP clients.
//!
//! The acceptance bar (ISSUE 4): served lists are bit-identical to the
//! offline ranking for the same user; `/metrics` exposes request, latency
//! and cache series; a hot-swap under concurrent load never yields a torn
//! model or a stale cached list.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, start, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- fixtures

/// 4 users × 6 items with enough held-out items per user for ranking to
/// have room. Item biases order the catalog; `slope` flips between
/// fixtures so "bundle A" and "bundle B" rank in opposite orders.
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
    let dir = std::env::temp_dir().join(format!("clapf-serve-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.json");
    b.save(&path).unwrap();
    path
}

/// The offline answer the server must reproduce bit-identically.
fn offline_top_k(b: &ModelBundle, raw_user: &str, k: usize) -> Vec<String> {
    b.recommend_raw(raw_user, k).unwrap()
}

// ------------------------------------------------------------ HTTP helpers

/// One-shot request through the shared client; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let reply = call(addr, method, path, Duration::from_secs(10)).expect("request");
    (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "GET", path)
}

fn post(addr: SocketAddr, path: &str) -> (u16, String) {
    http(addr, "POST", path)
}

// ------------------------------------------------------------ JSON helpers

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

fn items_of(body: &str) -> Vec<String> {
    let v: Value = serde_json::from_str(body).expect("response is JSON");
    match field(&v, "items") {
        Value::Seq(xs) => xs
            .iter()
            .map(|x| match x {
                Value::Str(s) => s.clone(),
                other => panic!("non-string item {other:?}"),
            })
            .collect(),
        other => panic!("items is not an array: {other:?}"),
    }
}

fn uint_of(body: &str, key: &str) -> u64 {
    let v: Value = serde_json::from_str(body).expect("response is JSON");
    match field(&v, key) {
        Value::Int(n) => u64::try_from(*n).expect("non-negative"),
        Value::UInt(n) => *n,
        other => panic!("{key} is not an integer: {other:?}"),
    }
}

fn bool_of(body: &str, key: &str) -> bool {
    let v: Value = serde_json::from_str(body).expect("response is JSON");
    match field(&v, key) {
        Value::Bool(b) => *b,
        other => panic!("{key} is not a bool: {other:?}"),
    }
}

fn start_server(path: PathBuf, config: ServeConfig) -> clapf_serve::ServerHandle {
    start(path, config, Arc::new(Registry::new())).expect("server starts")
}

// ------------------------------------------------------------------- tests

#[test]
fn recommend_matches_offline_evaluator_bit_for_bit() {
    let b = bundle(1.0, "bitident");
    let path = temp_bundle_file("bitident", &b);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    for user in ["u1", "u2", "u3", "u4"] {
        for k in [1, 3, 10] {
            let (status, body) = get(addr, &format!("/recommend/{user}?k={k}"));
            assert_eq!(status, 200, "{user} k={k}: {body}");
            assert_eq!(
                items_of(&body),
                offline_top_k(&b, user, k),
                "served list diverges from offline ranking for {user} k={k}"
            );
        }
    }

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn cache_hits_on_repeat_and_is_reported_in_metrics() {
    let b = bundle(1.0, "cache");
    let path = temp_bundle_file("cache", &b);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    let (_, first) = get(addr, "/recommend/u1?k=3");
    assert!(!bool_of(&first, "cached"), "first request must miss");
    let (_, second) = get(addr, "/recommend/u1?k=3");
    assert!(bool_of(&second, "cached"), "second request must hit");
    assert_eq!(items_of(&first), items_of(&second));

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "serve_cache_hits 1",
        "serve_cache_misses 1",
        "serve_recommend_requests 2",
        "# TYPE serve_recommend_latency_ms histogram",
        "serve_recommend_latency_ms_count 2",
        "serve_cache_entries 1",
        "serve_model_generation 0",
    ] {
        assert!(metrics.contains(series), "missing {series:?} in:\n{metrics}");
    }

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn healthz_and_error_paths() {
    let b = bundle(1.0, "errors");
    let path = temp_bundle_file("errors", &b);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");
    assert_eq!(uint_of(&body, "generation"), 0);

    assert_eq!(get(addr, "/recommend/nobody?k=3").0, 404);
    assert_eq!(get(addr, "/recommend/u1?k=0").0, 400);
    assert_eq!(get(addr, "/recommend/u1?k=notanumber").0, 400);
    assert_eq!(get(addr, "/recommend/u1?k=99999999").0, 400);
    assert_eq!(get(addr, "/nonsense").0, 404);
    assert_eq!(post(addr, "/recommend/u1").0, 404);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn reload_swaps_models_and_invalidates_the_cache() {
    let a = bundle(1.0, "swap-a");
    let b = bundle(-1.0, "swap-b");
    let path = temp_bundle_file("swap", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    // Warm the cache under generation 0.
    let (_, r0) = get(addr, "/recommend/u3?k=4");
    assert_eq!(items_of(&r0), offline_top_k(&a, "u3", 4));
    assert_eq!(uint_of(&r0, "generation"), 0);
    let (_, r0b) = get(addr, "/recommend/u3?k=4");
    assert!(bool_of(&r0b, "cached"));

    // Swap to bundle B (opposite ranking).
    b.save(&path).unwrap();
    let (status, body) = post(addr, "/reload");
    assert_eq!(status, 200, "{body}");
    assert_eq!(uint_of(&body, "generation"), 1);

    // The cached generation-0 list must never be served now: the first
    // post-swap request misses (generation mismatch) and recomputes
    // against B.
    let (_, r1) = get(addr, "/recommend/u3?k=4");
    assert_eq!(uint_of(&r1, "generation"), 1);
    assert!(!bool_of(&r1, "cached"), "stale cache entry served after swap");
    assert_eq!(items_of(&r1), offline_top_k(&b, "u3", 4));
    assert_ne!(items_of(&r1), items_of(&r0), "fixtures must rank differently");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn corrupt_reload_is_rejected_and_the_old_model_keeps_serving() {
    let a = bundle(1.0, "corrupt");
    let path = temp_bundle_file("corrupt", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    let want = offline_top_k(&a, "u2", 3);

    // Truncate the on-disk bundle to simulate a half-written file.
    let body = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &body[..body.len() / 3]).unwrap();

    let (status, reload_body) = post(addr, "/reload");
    assert_eq!(status, 500, "{reload_body}");
    assert!(reload_body.contains("reload rejected"), "{reload_body}");

    // Still serving generation 0, still the same answers.
    let (status, r) = get(addr, "/recommend/u2?k=3");
    assert_eq!(status, 200);
    assert_eq!(uint_of(&r, "generation"), 0);
    assert_eq!(items_of(&r), want);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn file_watcher_hot_swaps_without_an_explicit_reload() {
    let a = bundle(1.0, "watch");
    let b = bundle(-1.0, "watch-b");
    let path = temp_bundle_file("watch", &a);
    let server = start_server(
        path.clone(),
        ServeConfig {
            watch_poll: Some(Duration::from_millis(30)),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    assert_eq!(items_of(&get(addr, "/recommend/u1?k=4").1), offline_top_k(&a, "u1", 4));

    // Overwrite the bundle; the watcher should pick it up. Write to a
    // temp name and rename so the watcher sees one atomic change.
    let staged = path.with_extension("staged");
    b.save(&staged).unwrap();
    std::fs::rename(&staged, &path).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = get(addr, "/healthz");
        if uint_of(&body, "generation") == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never reloaded: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(items_of(&get(addr, "/recommend/u1?k=4").1), offline_top_k(&b, "u1", 4));

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn hot_swap_under_concurrent_load_never_serves_torn_or_stale_lists() {
    let a = bundle(1.0, "race-a");
    let b = bundle(-1.0, "race-b");
    let path = temp_bundle_file("race", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    // Per-generation ground truth: even generations serve A, odd serve B.
    let want_a = offline_top_k(&a, "u4", 4);
    let want_b = offline_top_k(&b, "u4", 4);
    assert_ne!(want_a, want_b);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        let (want_a, want_b) = (want_a.clone(), want_b.clone());
        clients.push(std::thread::spawn(move || {
            let mut checked = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = get(addr, "/recommend/u4?k=4");
                assert_eq!(status, 200, "{body}");
                let generation = uint_of(&body, "generation");
                let items = items_of(&body);
                // Every response must be exactly one bundle's offline list,
                // matched to the generation it claims — anything else is a
                // torn model or a stale cache entry.
                let want = if generation % 2 == 0 { &want_a } else { &want_b };
                assert_eq!(
                    &items, want,
                    "generation {generation} served a mismatched list"
                );
                checked += 1;
            }
            checked
        }));
    }

    // Flip-flop the bundle under load.
    for round in 0..6 {
        let next = if round % 2 == 0 { &b } else { &a };
        next.save(&path).unwrap();
        let (status, body) = post(addr, "/reload");
        assert_eq!(status, 200, "{body}");
        std::thread::sleep(Duration::from_millis(40));
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u32 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(total > 0, "clients never got a response in");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn post_shutdown_drains_and_wait_returns() {
    let a = bundle(1.0, "shutdown");
    let path = temp_bundle_file("shutdown", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    assert_eq!(get(addr, "/healthz").0, 200);
    let (status, body) = post(addr, "/shutdown");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");

    // wait() must return promptly once the drain completes.
    let waiter = std::thread::spawn(move || server.wait());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !waiter.is_finished() {
        assert!(std::time::Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    waiter.join().unwrap();

    // The port no longer accepts requests.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut s) = refused {
        // A connect may still succeed in the OS backlog window; a request
        // must then fail or return nothing.
        s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let _ = write!(s, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let mut out = String::new();
        let n = s.read_to_string(&mut out).unwrap_or(0);
        assert_eq!(n, 0, "server answered after shutdown: {out}");
    }

    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
