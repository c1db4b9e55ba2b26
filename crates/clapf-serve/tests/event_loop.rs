//! End-to-end tests for the event-driven transport (ISSUE 7).
//!
//! The acceptance bar: responses scored through the micro-batching path
//! are bit-identical to the offline evaluator and to single-request
//! scoring — including across hot-swaps with batches in flight; concurrent
//! identical misses coalesce to exactly one scoring computation; graceful
//! drain completes pending batches before the last socket closes; overload
//! sheds typed 503s; and the scan-poller fallback serves identically.
//!
//! Every test serializes on `clapf_faults::exclusive()`: failpoints are
//! process-global, so a fault one test arms would also fire in (and be
//! consumed by) another test's server.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, start, Conn, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- fixtures

/// Same shape as the integration-suite fixture: item biases order the
/// catalog, `slope` flips so bundles A and B rank in opposite orders.
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
    ModelBundle::new(format!("event-{tag}"), model, loaded.ids, &loaded.interactions)
}

fn temp_bundle_file(tag: &str, b: &ModelBundle) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-serve-ev-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.json");
    b.save(&path).unwrap();
    path
}

fn offline_top_k(b: &ModelBundle, raw_user: &str, k: usize) -> Vec<String> {
    b.recommend_raw(raw_user, k).unwrap()
}

fn event_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

fn start_server(path: PathBuf, config: ServeConfig) -> (clapf_serve::ServerHandle, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let handle = start(path, config, Arc::clone(&registry)).expect("server starts");
    (handle, registry)
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

/// A keep-alive client over the shared [`Conn`]: one connection, many
/// framed request/response pairs.
struct KeepAlive(Conn);

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        KeepAlive(Conn::open(addr, Duration::from_secs(10)).expect("connect"))
    }

    fn send(&mut self, method: &str, path: &str) {
        self.0.send(method, path, None).expect("send");
    }

    /// Reads exactly one response.
    fn read_response(&mut self) -> (u16, String) {
        let reply = self.0.recv().expect("response");
        (reply.status, String::from_utf8(reply.body).expect("UTF-8 body"))
    }

    fn roundtrip(&mut self, method: &str, path: &str) -> (u16, String) {
        self.send(method, path);
        self.read_response()
    }
}

// ------------------------------------------ raw reads for the shed tests
//
// The shed assertions read the response head as text, so these read raw
// bytes: they are the oracle the shared parser is checked against.

fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn raw_send(stream: &mut TcpStream, method: &str, path: &str) {
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
}

fn parse_response_text(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads exactly one `Content-Length`-framed response; returns the status,
/// the status line and headers, and the body.
fn raw_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            Ok(_) => panic!("connection closed mid-headers: {head:?}"),
            Err(e) => panic!("read error mid-headers: {e}"),
        }
    }
    let head_text = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head_text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head_text:?}"));
    let len: usize = head_text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Content-Length in {head_text:?}"));
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("read body");
    (status, head_text, String::from_utf8(body).unwrap())
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

/// Reads one counter from a Prometheus text dump (0.0 when absent). The
/// renderer mangles `.` to `_` in metric names.
fn metric_value(registry: &Registry, name: &str) -> f64 {
    let mangled = name.replace('.', "_");
    registry
        .render_text()
        .lines()
        .find_map(|l| {
            let (n, v) = l.rsplit_once(' ')?;
            (n == mangled).then(|| v.parse().ok())?
        })
        .unwrap_or(0.0)
}

// ------------------------------------------------------------------- tests

#[test]
fn event_loop_matches_offline_evaluator_bit_for_bit() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "bitident");
    let path = temp_bundle_file("ev-bitident", &b);
    let (server, registry) = start_server(path.clone(), event_config());
    let addr = server.addr();

    for user in ["u1", "u2", "u3", "u4"] {
        for k in [1, 3, 4] {
            let (status, body) = get(addr, &format!("/recommend/{user}?k={k}"));
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                items_of(&body),
                offline_top_k(&b, user, k),
                "user {user} k {k} diverged from the offline evaluator"
            );
            assert_eq!(uint_of(&body, "k"), k as u64);
        }
    }
    // The second identical request must be a cache hit served inline.
    let (_, body) = get(addr, "/recommend/u1?k=3");
    assert!(body.contains("\"cached\":true"), "{body}");

    // On Linux with default features the epoll backend must be live.
    #[cfg(all(target_os = "linux", feature = "epoll"))]
    assert_eq!(metric_value(&registry, "serve.backend.epoll"), 1.0);
    let _ = &registry;

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn scan_poller_fallback_serves_identically() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "scan");
    let path = temp_bundle_file("ev-scan", &b);
    let (server, registry) = start_server(
        path.clone(),
        ServeConfig {
            force_scan_poller: true,
            ..event_config()
        },
    );
    let addr = server.addr();

    for user in ["u1", "u4"] {
        let (status, body) = get(addr, &format!("/recommend/{user}?k=4"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(items_of(&body), offline_top_k(&b, user, 4));
    }
    assert_eq!(metric_value(&registry, "serve.backend.scan"), 1.0);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "pipeline");
    let path = temp_bundle_file("ev-pipeline", &b);
    let (server, _) = start_server(path.clone(), event_config());
    let addr = server.addr();

    let mut client = KeepAlive::connect(addr);
    // Three requests in one burst — the parser must split them, and a
    // score-parked head must not reorder the pipelined tail.
    client.send("GET", "/recommend/u1?k=3");
    client.send("GET", "/healthz");
    client.send("GET", "/recommend/u2?k=2");
    let (s1, b1) = client.read_response();
    let (s2, b2) = client.read_response();
    let (s3, b3) = client.read_response();
    assert_eq!((s1, s2, s3), (200, 200, 200), "{b1}\n{b2}\n{b3}");
    assert_eq!(items_of(&b1), offline_top_k(&b, "u1", 3));
    assert!(b2.contains("\"status\":\"ok\""), "{b2}");
    assert_eq!(items_of(&b3), offline_top_k(&b, "u2", 2));

    // The connection is still usable afterwards.
    let (s4, b4) = client.roundtrip("GET", "/recommend/u3?k=1");
    assert_eq!(s4, 200);
    assert_eq!(items_of(&b4), offline_top_k(&b, "u3", 1));

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn concurrent_identical_misses_score_exactly_once() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "coalesce");
    let path = temp_bundle_file("ev-coalesce", &b);
    let (server, registry) = start_server(path.clone(), event_config());
    let addr = server.addr();

    // Hold the first batch in the scorer long enough for every concurrent
    // request to arrive while its key is still in flight.
    clapf_faults::arm_nth(
        "serve.batch.flush",
        clapf_faults::Fault::Delay { ms: 300 },
        0,
        Some(1),
    );

    let want = offline_top_k(&b, "u2", 3);
    let mut clients = Vec::new();
    for _ in 0..8 {
        let want = want.clone();
        clients.push(std::thread::spawn(move || {
            let (status, body) = get(addr, "/recommend/u2?k=3");
            assert_eq!(status, 200, "{body}");
            assert_eq!(items_of(&body), want, "coalesced answer diverged");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    clapf_faults::disarm("serve.batch.flush");

    // Exactly one scoring computation: one miss; everything else either
    // coalesced onto the in-flight key or hit the cache afterwards.
    assert_eq!(
        metric_value(&registry, "serve.cache.misses"),
        1.0,
        "stampede was not coalesced"
    );
    let hits = metric_value(&registry, "serve.cache.hits");
    let coalesced = metric_value(&registry, "serve.cache.coalesced");
    assert_eq!(hits + coalesced, 7.0, "hits {hits} + coalesced {coalesced}");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn misses_queued_behind_a_busy_scorer_share_a_batch() {
    let _guard = clapf_faults::exclusive();
    // Eight users, so eight concurrent misses are eight distinct keys.
    let csv: String = (0..8).map(|u| format!("u{u},i{u},5\n")).collect();
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
        *model.bias_mut(ItemId(i)) = i as f32 + 1.0;
    }
    let b = ModelBundle::new("event-natural".into(), model, loaded.ids, &loaded.interactions);
    let path = temp_bundle_file("ev-natural", &b);
    // One scorer: while the delayed first batch occupies it, every other
    // miss can only queue.
    let (server, registry) = start_server(
        path.clone(),
        ServeConfig {
            workers: 1,
            ..event_config()
        },
    );
    let addr = server.addr();

    clapf_faults::arm_nth(
        "serve.batch.flush",
        clapf_faults::Fault::Delay { ms: 300 },
        0,
        Some(1),
    );
    let clients: Vec<_> = (0..8)
        .map(|u| {
            let user = format!("u{u}");
            let want = offline_top_k(&b, &user, 3);
            std::thread::spawn(move || {
                let (status, body) = get(addr, &format!("/recommend/{user}?k=3"));
                assert_eq!(status, 200, "{body}");
                assert_eq!(items_of(&body), want, "{user}: batched list diverged");
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    clapf_faults::disarm("serve.batch.flush");

    assert_eq!(metric_value(&registry, "serve.cache.misses"), 8.0);
    assert_eq!(metric_value(&registry, "serve.batch.size_sum"), 8.0);
    let batches = metric_value(&registry, "serve.batch.size_count");
    assert!(
        (1.0..8.0).contains(&batches),
        "8 misses behind a busy scorer formed {batches} batches"
    );

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn hot_swap_with_batches_in_flight_stays_bit_identical() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "ev-race-a");
    let b = bundle(-1.0, "ev-race-b");
    let path = temp_bundle_file("ev-race", &a);
    // Cache OFF: every request is scored through the batch path, so the
    // bit-identity assertion below exercises batched scoring itself, not
    // cached copies of it. Batches are guaranteed in flight across swaps.
    let (server, _) = start_server(
        path.clone(),
        ServeConfig {
            cache_capacity: 0,
            ..event_config()
        },
    );
    let addr = server.addr();

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
            let mut ka = KeepAlive::connect(addr);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = ka.roundtrip("GET", "/recommend/u4?k=4");
                assert_eq!(status, 200, "{body}");
                let generation = uint_of(&body, "generation");
                let items = items_of(&body);
                // Every batched answer must be exactly one bundle's offline
                // list, matched to the generation it claims.
                let want = if generation % 2 == 0 { &want_a } else { &want_b };
                assert_eq!(
                    &items, want,
                    "generation {generation} served a mismatched batched list"
                );
                checked += 1;
            }
            checked
        }));
    }

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
fn shutdown_with_a_pending_batch_still_answers_it() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "ev-drain");
    let path = temp_bundle_file("ev-drain", &b);
    let (server, _) = start_server(path.clone(), event_config());
    let addr = server.addr();

    // Park one request in the scorer for 400ms, then shut down while it is
    // still in flight: the drain must deliver its answer before closing.
    clapf_faults::arm_nth(
        "serve.batch.flush",
        clapf_faults::Fault::Delay { ms: 400 },
        0,
        Some(1),
    );
    let want = offline_top_k(&b, "u3", 2);
    let pending = std::thread::spawn(move || get(addr, "/recommend/u3?k=2"));
    std::thread::sleep(Duration::from_millis(100)); // let it park

    let (status, body) = post(addr, "/shutdown");
    assert_eq!(status, 200, "{body}");

    let (status, body) = pending.join().unwrap();
    clapf_faults::disarm("serve.batch.flush");
    assert_eq!(status, 200, "pending request lost in drain: {body}");
    assert_eq!(items_of(&body), want);

    // And the drain completes promptly after the batch lands.
    let waiter = std::thread::spawn(move || server.wait());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !waiter.is_finished() {
        assert!(Instant::now() < deadline, "server never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    waiter.join().unwrap();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn connections_past_max_conns_are_shed_with_503() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "ev-maxconn");
    let path = temp_bundle_file("ev-maxconn", &b);
    let (server, _) = start_server(
        path.clone(),
        ServeConfig {
            max_conns: 2,
            ..event_config()
        },
    );
    let addr = server.addr();

    // Fill both slots and prove they are live (a request round-trips).
    let mut held_1 = KeepAlive::connect(addr);
    let mut held_2 = KeepAlive::connect(addr);
    assert_eq!(held_1.roundtrip("GET", "/healthz").0, 200);
    assert_eq!(held_2.roundtrip("GET", "/healthz").0, 200);

    // The third connection is accepted only to be shed — promptly, with a
    // typed 503 and a Retry-After hint, not a hang.
    let started = Instant::now();
    let mut third = raw_connect(addr);
    let mut raw = String::new();
    third.read_to_string(&mut raw).expect("read shed response");
    let (status, body) = parse_response_text(&raw);
    assert_eq!(status, 503, "{body}");
    assert!(raw.contains("Retry-After"), "{raw}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shed response was not prompt"
    );

    // The shed is counted, and a held connection can still read it.
    let (status, metrics) = held_2.roundtrip("GET", "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("\nserve_shed 1\n"), "{metrics}");

    // Freeing a slot restores service for new connections.
    drop(held_1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = raw_connect(addr);
        raw_send(&mut retry, "GET", "/healthz");
        let mut first = [0u8; 12];
        match retry.read_exact(&mut first) {
            Ok(()) if String::from_utf8_lossy(&first).contains("200") => break,
            _ => {
                assert!(Instant::now() < deadline, "slot never freed");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn pending_bound_sheds_the_request_but_keeps_the_connection() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "ev-pbound");
    let path = temp_bundle_file("ev-pbound", &b);
    let (server, _) = start_server(
        path.clone(),
        ServeConfig {
            cache_capacity: 0, // every request scores; nothing coalesces
            pending_bound: 1,
            workers: 1,
            ..event_config()
        },
    );
    let addr = server.addr();

    // Slow every batch down so the queue visibly backs up.
    clapf_faults::arm("serve.batch.flush", clapf_faults::Fault::Delay { ms: 400 });

    // First request: dequeued by the (single) scorer, now sleeping.
    let mut first = KeepAlive::connect(addr);
    first.send("GET", "/recommend/u1?k=2");
    std::thread::sleep(Duration::from_millis(100));
    // Second request: sits in the queue (length 1 = the bound).
    let mut second = KeepAlive::connect(addr);
    second.send("GET", "/recommend/u2?k=2");
    std::thread::sleep(Duration::from_millis(100));
    // Third request: queue is at the bound — shed, but on a live socket.
    let mut third = raw_connect(addr);
    raw_send(&mut third, "GET", "/recommend/u3?k=2");
    let (status, head, body) = raw_response(&mut third);
    clapf_faults::disarm("serve.batch.flush");
    assert_eq!(status, 503, "expected a shed, got {body}");
    assert!(head.contains("Retry-After"), "{head}");

    // The shed connection survives and serves the retry.
    raw_send(&mut third, "GET", "/healthz");
    let (status, _, body) = raw_response(&mut third);
    assert_eq!(status, 200, "{body}");

    // The parked requests complete normally.
    assert_eq!(first.read_response().0, 200);
    assert_eq!(second.read_response().0, 200);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn poller_wait_faults_are_tolerated() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "ev-waitfault");
    let path = temp_bundle_file("ev-waitfault", &b);
    let (server, registry) = start_server(path.clone(), event_config());
    let addr = server.addr();

    clapf_faults::arm_nth("serve.epoll.wait", clapf_faults::Fault::Io, 0, Some(5));
    for _ in 0..3 {
        let (status, _) = get(addr, "/recommend/u1?k=2");
        assert_eq!(status, 200);
    }
    clapf_faults::disarm("serve.epoll.wait");
    assert!(
        metric_value(&registry, "serve.epoll.faults") >= 1.0,
        "failpoint never fired"
    );

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn file_watcher_reloads_under_the_event_transport() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "ev-watch-a");
    let b = bundle(-1.0, "ev-watch-b");
    let path = temp_bundle_file("ev-watch", &a);
    let (server, _) = start_server(
        path.clone(),
        ServeConfig {
            watch_poll: Some(Duration::from_millis(30)),
            ..event_config()
        },
    );
    let addr = server.addr();

    assert_eq!(
        items_of(&get(addr, "/recommend/u1?k=4").1),
        offline_top_k(&a, "u1", 4)
    );

    let staged = path.with_extension("staged");
    b.save(&staged).unwrap();
    std::fs::rename(&staged, &path).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = get(addr, "/healthz");
        if uint_of(&body, "generation") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "watcher never reloaded: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        items_of(&get(addr, "/recommend/u1?k=4").1),
        offline_top_k(&b, "u1", 4)
    );

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
