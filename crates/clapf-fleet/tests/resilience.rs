//! Fleet resilience integration tests (DESIGN.md §17): the all-dead typed
//! 503, degraded-mode stale serving, circuit-breaker trip and recovery,
//! HTTP registration with lease expiry and re-admission, and hedged reads
//! beating a slow replica.
//!
//! Replicas are either in-process `clapf_serve` servers or hand-rolled
//! fake upstreams (when a test needs a replica that is deliberately slow
//! — something a real server never is on a fixture this small). Tests
//! that arm the `fleet.upstream.connect` failpoint serialize on
//! `clapf_faults::exclusive()`.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_fleet::{HedgePolicy, RouterConfig, RouterHandle};
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, start, ModelBundle, Response, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- fixtures

fn bundle(tag: &str) -> ModelBundle {
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
        *model.bias_mut(ItemId(i)) = i as f32 + 1.0;
    }
    ModelBundle::new(format!("fixture-{tag}"), model, loaded.ids, &loaded.interactions)
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("clapf-resilience-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One in-process replica serving a fresh copy of the fixture bundle.
fn start_replica(scratch: &Scratch, tag: &str) -> clapf_serve::ServerHandle {
    let path = scratch.path(&format!("replica-{tag}.json"));
    bundle(tag).save(&path).unwrap();
    start(path, ServeConfig::default(), Arc::new(Registry::new())).expect("replica starts")
}

/// A port where nothing listens: bind, read the address, drop the socket.
/// Connects to it fail fast with `ECONNREFUSED`.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
}

/// A fake replica answering every request — `/healthz` probes and proxied
/// `/recommend` alike — with `answer(request line)` after `delay`.
/// Keep-alive framing matches what the router's pooled client expects.
/// Returns the address; the listener thread lives until process exit
/// (tests are short-lived, and a leaked acceptor blocked on a dead port
/// holds no other resources).
fn fake_replica(delay: Duration, answer: fn(&str) -> Vec<u8>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || serve_fake_conn(stream, delay, answer));
        }
    });
    addr
}

fn serve_fake_conn(stream: TcpStream, delay: Duration, answer: fn(&str) -> Vec<u8>) {
    let mut reader = BufReader::new(stream);
    loop {
        // Headers only; the router never sends request bodies.
        let mut line = String::new();
        let mut request_line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if line == "\r\n" => break,
                Ok(_) if request_line.is_empty() => request_line = line.clone(),
                Ok(_) => {}
            }
        }
        if request_line.is_empty() {
            return;
        }
        std::thread::sleep(delay);
        if reader.get_mut().write_all(&answer(&request_line)).is_err() {
            return;
        }
    }
}

/// The same fixed JSON 200 for every request.
fn fake_ok(_request_line: &str) -> Vec<u8> {
    let body = r#"{"status":"ok","fake":true}"#;
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The replica's per-request queue shed, rendered by the replica's own
/// code: a 503 with a `Retry-After` hint on a connection that stays open.
fn replica_shed(keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    Response::error(503, "server overloaded, retry shortly")
        .with_header("Retry-After", "1")
        .write_to(&mut out, keep_alive)
        .unwrap();
    out
}

/// Healthy to probes, shedding every `/recommend`.
fn fake_shedding(request_line: &str) -> Vec<u8> {
    if request_line.starts_with("GET /healthz ") {
        fake_ok(request_line)
    } else {
        replica_shed(true)
    }
}

// ------------------------------------------------------------ HTTP helpers

/// One-shot request; returns the raw response bytes.
fn raw(addr: SocketAddr, method: &str, path: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    buf
}

fn split_head_body(bytes: &[u8]) -> (String, String) {
    let text = String::from_utf8_lossy(bytes).to_string();
    match text.split_once("\r\n\r\n") {
        Some((h, b)) => (h.to_string(), b.to_string()),
        None => (text, String::new()),
    }
}

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

/// The current value of a counter/gauge on the router's `/metrics` dump
/// (dots in metric names render as underscores).
fn metric(router: &RouterHandle, name: &str) -> u64 {
    let (status, body) = get(router.addr(), "/metrics");
    assert_eq!(status, 200);
    let rendered = name.replace('.', "_");
    body.lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == rendered).then(|| v.parse::<f64>().ok())?
        })
        .map(|v| v as u64)
        .unwrap_or(0)
}

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

// ------------------------------------------------------------------- tests

#[test]
fn an_all_dead_fleet_answers_a_typed_503_with_retry_after_immediately() {
    // Case 1: every configured slot is dead (connect refused).
    let config = RouterConfig {
        replicas: vec![dead_addr(), dead_addr()],
        health_interval: Duration::from_millis(50),
        upstream_timeout: Duration::from_millis(500),
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();

    let t0 = Instant::now();
    let (head, body) = split_head_body(&raw(router.addr(), "GET", "/recommend/u1?k=3"));
    let elapsed = t0.elapsed();
    assert!(head.starts_with("HTTP/1.1 503"), "expected 503, got {head:?}");
    assert!(head.contains("Retry-After"), "503 must carry Retry-After: {head}");
    assert!(
        body.contains("no live replica") || body.contains("unreachable"),
        "untyped error body: {body:?}"
    );
    // No hang: the answer comes straight from the routing decision, not
    // from waiting out upstream timeouts.
    assert!(elapsed < Duration::from_secs(2), "all-dead answer took {elapsed:?}");
    assert!(metric(&router, "fleet.unroutable") >= 1);
    router.shutdown();

    // Case 2: a fleet with zero members (nothing ever registered) answers
    // the same typed 503 — no panic on the empty ring.
    let config = RouterConfig {
        replicas: Vec::new(),
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();
    let (head, _) = split_head_body(&raw(router.addr(), "GET", "/recommend/u1?k=3"));
    assert!(head.starts_with("HTTP/1.1 503"), "empty fleet: {head:?}");
    assert!(head.contains("Retry-After"));
    router.shutdown();
}

#[test]
fn degraded_mode_serves_stale_answers_once_the_fleet_dies() {
    let scratch = Scratch::new("degraded");
    let replica = start_replica(&scratch, "degraded");
    let config = RouterConfig {
        replicas: vec![replica.addr()],
        health_interval: Duration::from_millis(50),
        upstream_timeout: Duration::from_millis(500),
        ..RouterConfig::default() // fallback cache on by default
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();

    // Warm the fallback cache through a normal proxied answer.
    let (status, warm_body) = get(router.addr(), "/recommend/u1?k=3");
    assert_eq!(status, 200);

    // The whole fleet dies.
    replica.shutdown();

    // The warmed path degrades: 200, same body, stamped as stale.
    let (head, body) = split_head_body(&raw(router.addr(), "GET", "/recommend/u1?k=3"));
    assert!(head.starts_with("HTTP/1.1 200"), "degraded hit must be 200: {head:?}");
    assert!(
        head.contains("X-Clapf-Degraded: stale"),
        "degraded answer must be stamped: {head}"
    );
    assert_eq!(body, warm_body, "stale answer must be the cached bytes");

    // A path never cached has nothing to degrade to: typed 503.
    let (head, _) = split_head_body(&raw(router.addr(), "GET", "/recommend/u2?k=3"));
    assert!(head.starts_with("HTTP/1.1 503"), "cold path must 503: {head:?}");
    assert!(head.contains("Retry-After"));

    assert!(metric(&router, "fleet.degraded.served") >= 1);
    assert!(metric(&router, "fleet.unroutable") >= 1);
    router.shutdown();
}

#[test]
fn a_routed_shed_keeps_its_retry_after_hint() {
    // The only replica is healthy but sheds every /recommend with the
    // replica's own 503 + Retry-After. The router must relay that answer
    // as a direct client would see it — hint included — not strip it.
    let shedding = fake_replica(Duration::ZERO, fake_shedding);
    let config = RouterConfig {
        replicas: vec![shedding],
        health_interval: Duration::from_millis(50),
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();

    let routed = raw(router.addr(), "GET", "/recommend/u1?k=3");
    let (head, body) = split_head_body(&routed);
    assert!(head.starts_with("HTTP/1.1 503"), "expected the relayed shed: {head:?}");
    assert!(head.contains("Retry-After: 1"), "routed shed lost its hint: {head}");
    assert!(body.contains("server overloaded"), "not the replica's shed: {body}");
    assert_eq!(
        String::from_utf8_lossy(&routed),
        String::from_utf8_lossy(&replica_shed(false)),
        "routed shed must be byte-identical to the direct one"
    );
    router.shutdown();
}

#[test]
fn a_breaker_trips_on_consecutive_failures_and_recovery_closes_it() {
    let _guard = clapf_faults::exclusive();
    let scratch = Scratch::new("breaker");
    let replica = start_replica(&scratch, "breaker");
    let config = RouterConfig {
        replicas: vec![replica.addr()],
        health_interval: Duration::from_millis(50),
        fallback_cache: 0,
        hedge: HedgePolicy {
            enabled: false,
            ..HedgePolicy::default()
        },
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();
    let (status, _) = get(router.addr(), "/recommend/u1?k=3");
    assert_eq!(status, 200, "baseline request through a healthy fleet");

    // The data path dies while health probes stay green (the probe client
    // does not evaluate this failpoint) — the exact failure mode breakers
    // exist for. Rapid-fire requests fail consecutively and trip it.
    clapf_faults::arm("fleet.upstream.connect", clapf_faults::Fault::Io);
    let mut saw_503 = false;
    wait_until("breaker to trip", Duration::from_secs(5), || {
        let (status, _) = get(router.addr(), "/recommend/u1?k=3");
        saw_503 |= status == 503;
        metric(&router, "fleet.breaker.trip") >= 1
    });
    assert!(saw_503, "failed requests must shed with 503 while tripped");

    // Fault lifted: the next health probe re-admits the slot and closes
    // the breaker; traffic flows again with no operator involvement.
    clapf_faults::reset();
    wait_until("recovery after disarm", Duration::from_secs(5), || {
        let (status, _) = get(router.addr(), "/recommend/u1?k=3");
        status == 200
    });
    assert!(metric(&router, "fleet.breaker.close") >= 1);
    let (_, status_body) = get(router.addr(), "/fleet/status");
    assert!(
        status_body.contains("\"breaker\":\"closed\""),
        "breaker must end closed: {status_body}"
    );

    router.shutdown();
    replica.shutdown();
}

#[test]
fn http_registration_joins_the_ring_and_lease_expiry_evicts() {
    let scratch = Scratch::new("lease");
    let replica = start_replica(&scratch, "lease");
    let config = RouterConfig {
        replicas: Vec::new(),
        lease_ttl: Duration::from_millis(300),
        health_interval: Duration::from_millis(50),
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();
    assert_eq!(router.member_count(), 0);

    // A replica joins over the wire; the ring grows and traffic flows.
    let (status, body) = post(
        router.addr(),
        &format!("/fleet/register?name=r1&addr={}", replica.addr()),
    );
    assert_eq!(status, 200, "registration rejected: {body}");
    assert!(body.contains("\"lease_ms\":300"), "lease TTL not echoed: {body}");
    assert_eq!(router.member_count(), 1);
    wait_until("first probe to admit the member", Duration::from_secs(5), || {
        get(router.addr(), "/recommend/u1?k=3").0 == 200
    });

    // Heartbeats stop (this test never sends a second one): the lease
    // expires, the sweep evicts the slot, and the fleet is unroutable —
    // even though the replica process itself is still perfectly healthy.
    wait_until("lease expiry to evict", Duration::from_secs(5), || {
        metric(&router, "fleet.lease.expired") >= 1
    });
    let (status, _) = get(router.addr(), "/recommend/u1?k=3");
    assert_eq!(status, 503, "an evicted member must not be routed to");
    let (_, status_body) = get(router.addr(), "/fleet/status");
    assert!(
        status_body.contains("\"lease_ms\":\"expired\""),
        "status must show the expired lease: {status_body}"
    );

    // Re-registration re-admits the same name into the same slot.
    let (status, body) = post(
        router.addr(),
        &format!("/fleet/register?name=r1&addr={}", replica.addr()),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"slot\":0"), "name must keep its slot: {body}");
    assert_eq!(router.member_count(), 1, "re-admission must not grow the ring");
    wait_until("re-admission to route again", Duration::from_secs(5), || {
        get(router.addr(), "/recommend/u1?k=3").0 == 200
    });
    assert!(metric(&router, "fleet.member.readmitted") >= 1);

    router.shutdown();
    replica.shutdown();
}

#[test]
fn hedged_reads_mask_a_slow_replica() {
    let scratch = Scratch::new("hedge");
    let replica = start_replica(&scratch, "hedge");
    // One real replica plus one fake that answers everything — health
    // probes included — only after 300ms. Users homed on the fake hedge
    // to the real replica after 25ms and the hedge wins.
    let slow = fake_replica(Duration::from_millis(300), fake_ok);
    let config = RouterConfig {
        replicas: vec![replica.addr(), slow],
        health_interval: Duration::from_millis(100),
        hedge: HedgePolicy {
            fixed_delay: Some(Duration::from_millis(25)),
            ..HedgePolicy::default()
        },
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap();

    // Sweep enough distinct users that both slots see traffic (the ring is
    // a fixed hash, so which users land where is deterministic across
    // runs; unknown users 404 on the real replica, which is still a valid
    // hedged answer). Every response must complete — hedging may never
    // turn a slow answer into an error.
    for i in 1..=12 {
        let (status, body) = get(router.addr(), &format!("/recommend/u{i}?k=3"));
        assert!(
            status == 200 || status == 404,
            "hedged request failed: {status} {body}"
        );
    }
    assert!(
        metric(&router, "fleet.hedge.fired") >= 1,
        "no hedge ever fired across the sweep"
    );
    assert!(
        metric(&router, "fleet.hedge.wins") >= 1,
        "no hedge ever won against a 300ms replica"
    );

    router.shutdown();
    replica.shutdown();
}
