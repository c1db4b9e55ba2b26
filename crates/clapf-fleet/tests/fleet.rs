//! Fleet-level integration tests (ISSUE 9): bit-identical proxying,
//! health-checked failover with re-admission, the two-phase rollout under
//! live load, the torn-rollout abort path, and the pause gate.
//!
//! Replicas are in-process `clapf_serve` servers; the router is the real
//! `start_router`. Tests that trip the `fleet.rollout.commit` failpoint —
//! or run a rollout at all, which checks it — serialize on
//! `clapf_faults::exclusive()` so an armed fault is never consumed by a
//! neighbouring test.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_fleet::{rollout, FleetSpec, ReplicaSpec, RolloutError, RouterConfig};
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, fingerprint64, start, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- fixtures

const USERS: [&str; 4] = ["u1", "u2", "u3", "u4"];

/// Same fixture shape as the clapf-serve tests: item biases order the
/// catalog, `slope` flips between bundles so A and B rank oppositely.
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

/// A scratch dir unique to this test, removed by `Scratch::drop`.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("clapf-fleet-{tag}-{}", std::process::id()));
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

fn file_fingerprint(path: &Path) -> String {
    format!("{:016x}", fingerprint64(&std::fs::read(path).unwrap()))
}

/// Starts `n` replicas all serving copies of bundle `a`, one copy per
/// replica so commits rename independently. Returns handles and specs.
fn start_replicas(
    scratch: &Scratch,
    a: &ModelBundle,
    n: usize,
) -> (Vec<clapf_serve::ServerHandle>, Vec<ReplicaSpec>) {
    let master = scratch.path("master.json");
    a.save(&master).unwrap();
    let mut handles = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let path = scratch.path(&format!("replica-{i}.json"));
        std::fs::copy(&master, &path).unwrap();
        let h = start(
            path.clone(),
            ServeConfig::default(),
            Arc::new(Registry::new()),
        )
        .expect("replica starts");
        specs.push(ReplicaSpec {
            addr: h.addr(),
            bundle: path,
        });
        handles.push(h);
    }
    (handles, specs)
}

fn router_config(replicas: &[ReplicaSpec]) -> RouterConfig {
    RouterConfig {
        replicas: replicas.iter().map(|r| r.addr).collect(),
        health_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    }
}

// ------------------------------------------------------------ HTTP helpers

/// One-shot request; returns the raw response bytes, byte-for-byte.
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

fn json(body: &str) -> Value {
    serde_json::from_str(body).expect("response is JSON")
}

// ------------------------------------------------------------------- tests

#[test]
fn routed_responses_are_bit_identical_to_direct_ones() {
    let a = bundle(1.0, "bitid");
    let scratch = Scratch::new("bitid");
    let (handles, specs) = start_replicas(&scratch, &a, 3);
    let router = clapf_fleet::start_router(router_config(&specs), Arc::new(Registry::new()))
        .expect("router starts");

    // Every replica serves the same bundle at generation 0, so a direct
    // answer from any replica is THE canonical answer — the routed bytes
    // must match it exactly, headers included. The `"cached"` field in the
    // body reflects per-replica cache warmth, so a warming round puts the
    // routed target and the direct replica in the same cache state before
    // the byte comparison. Percent-encoded user ids ride along to check
    // the double parse (client → router → replica) is loss-free.
    let paths: Vec<String> = USERS
        .iter()
        .flat_map(|user| [1usize, 3, 6].map(|k| format!("/recommend/{user}?k={k}")))
        .chain(["/recommend/u%31?k=2".to_string()])
        .collect();
    for path in &paths {
        let _ = raw(router.addr(), "GET", path);
        let _ = raw(handles[0].addr(), "GET", path);
    }
    for path in &paths {
        let direct = raw(handles[0].addr(), "GET", path);
        let routed = raw(router.addr(), "GET", path);
        assert_eq!(
            routed,
            direct,
            "routed bytes diverged for {path}:\nrouted: {:?}\ndirect: {:?}",
            String::from_utf8_lossy(&routed),
            String::from_utf8_lossy(&direct),
        );
    }

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn router_masks_a_killed_replica_and_readmits_a_replacement() {
    let a = bundle(1.0, "failover");
    let scratch = Scratch::new("failover");
    let (mut handles, specs) = start_replicas(&scratch, &a, 2);
    let router = clapf_fleet::start_router(router_config(&specs), Arc::new(Registry::new()))
        .expect("router starts");

    // Baseline: both slots admitted by the initial synchronous probe.
    assert!(router.is_alive(0) && router.is_alive(1));

    // Kill replica 0 mid-fleet. The very next request homed on it fails
    // the upstream hop, gets retried through the ring, and the client
    // sees 200 — zero 5xx after one retry is the contract.
    handles.remove(0).shutdown();
    for user in USERS {
        for _ in 0..3 {
            let (status, body) = get(router.addr(), &format!("/recommend/{user}?k=4"));
            assert_eq!(status, 200, "failover must mask the dead replica: {body}");
            assert_eq!(
                json(&body).get("items"),
                Some(&a.recommend_raw(user, 4).unwrap().to_value()),
            );
        }
    }
    // The health checker (or the failed hop) has evicted slot 0 by now.
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.is_alive(0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!router.is_alive(0), "dead replica still in the ring");

    // A replacement comes up on a fresh port; the slot keeps its ring
    // position, only the address table changes, and the health checker
    // re-admits it without operator involvement.
    let replacement = start(
        specs[0].bundle.clone(),
        ServeConfig::default(),
        Arc::new(Registry::new()),
    )
    .expect("replacement starts");
    router.set_replica_addr(0, replacement.addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while !router.is_alive(0) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(router.is_alive(0), "replacement never re-admitted");
    for user in USERS {
        let (status, _) = get(router.addr(), &format!("/recommend/{user}?k=4"));
        assert_eq!(status, 200);
    }

    router.shutdown();
    replacement.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn rollout_under_load_drops_nothing_and_never_mixes_generations() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "roll-a");
    let b = bundle(-1.0, "roll-b");
    let scratch = Scratch::new("rollout");
    let (handles, specs) = start_replicas(&scratch, &a, 2);
    let router = clapf_fleet::start_router(router_config(&specs), Arc::new(Registry::new()))
        .expect("router starts");
    let candidate = scratch.path("candidate.json");
    b.save(&candidate).unwrap();
    let fp_b = file_fingerprint(&candidate);

    let spec = FleetSpec {
        router: Some(router.addr()),
        replicas: specs.clone(),
    };

    // Hammer the router from two threads for the whole rollout; every
    // response is recorded as (user, status, generation, items).
    let stop = Arc::new(AtomicBool::new(false));
    let router_addr = router.addr();
    let loaders: Vec<_> = (0..2)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut i = t;
                while !stop.load(Ordering::Acquire) {
                    let user = USERS[i % USERS.len()];
                    i += 1;
                    let (status, body) = get(router_addr, &format!("/recommend/{user}?k=4"));
                    if status == 200 {
                        let v = json(&body);
                        let generation = v.get("generation").and_then(Value::as_u64);
                        seen.push((user, status, generation, v.get("items").cloned()));
                    } else {
                        seen.push((user, status, None, None));
                    }
                }
                seen
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100)); // load flowing pre-rollout
    let report = rollout(&spec, &candidate).expect("rollout succeeds");
    std::thread::sleep(Duration::from_millis(100)); // and post-rollout
    stop.store(true, Ordering::Release);

    assert_eq!(format!("{:016x}", report.fingerprint), fp_b);
    assert_eq!(report.generations, vec![1, 1]);

    let mut old_gen = 0usize;
    let mut new_gen = 0usize;
    for t in loaders {
        for (user, status, generation, items) in t.join().expect("loader thread") {
            // Zero dropped requests: the commit window parks traffic, it
            // never sheds or errors it.
            assert_eq!(status, 200, "request dropped during rollout for {user}");
            // Zero mixed generations: a response is either entirely the
            // old model's answer or entirely the new one's.
            match generation {
                Some(0) => {
                    assert_eq!(items, Some(a.recommend_raw(user, 4).unwrap().to_value()));
                    old_gen += 1;
                }
                Some(1) => {
                    assert_eq!(items, Some(b.recommend_raw(user, 4).unwrap().to_value()));
                    new_gen += 1;
                }
                g => panic!("unexpected generation {g:?} for {user}"),
            }
        }
    }
    assert!(old_gen > 0, "load never observed the old generation");
    assert!(new_gen > 0, "load never observed the new generation");

    // Both replicas now live on B, router unpaused.
    for r in &spec.replicas {
        let (_, probe) = get(r.addr, "/bundle/fingerprint");
        assert_eq!(json(&probe).get("fingerprint").and_then(Value::as_str), Some(fp_b.as_str()));
    }
    let (_, health) = get(router.addr(), "/healthz");
    assert_eq!(json(&health).get("paused").and_then(Value::as_bool), Some(false));

    // Re-rolling the same bundle is rejected at precheck, untouched fleet.
    match rollout(&spec, &candidate) {
        Err(RolloutError::Rejected { phase, .. }) => assert_eq!(phase, "precheck"),
        other => panic!("re-rollout must reject at precheck, got {other:?}"),
    }

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn torn_commit_aborts_and_restores_the_old_generation_fleet_wide() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "torn-a");
    let b = bundle(-1.0, "torn-b");
    let scratch = Scratch::new("torn");
    let (handles, specs) = start_replicas(&scratch, &a, 2);
    let router = clapf_fleet::start_router(router_config(&specs), Arc::new(Registry::new()))
        .expect("router starts");
    let fp_a = file_fingerprint(&specs[0].bundle);
    let candidate = scratch.path("candidate.json");
    b.save(&candidate).unwrap();

    let spec = FleetSpec {
        router: Some(router.addr()),
        replicas: specs.clone(),
    };

    // Replica 0 commits, then the driver dies before replica 1 can — the
    // classic torn rollout. The abort path must walk it back everywhere.
    clapf_faults::arm_nth("fleet.rollout.commit", clapf_faults::Fault::Io, 1, Some(1));
    match rollout(&spec, &candidate) {
        Err(RolloutError::Aborted { reason }) => {
            assert!(reason.contains("replica 1"), "wrong failure site: {reason}")
        }
        other => panic!("expected Aborted, got {other:?}"),
    }
    clapf_faults::reset();

    // Fleet-wide convergence on the OLD generation: replica 0 reverted
    // (fresh generation, old fingerprint), replica 1 never flipped, and
    // both answer with bundle A's rankings. No split brain.
    for r in &spec.replicas {
        let (_, probe) = get(r.addr, "/bundle/fingerprint");
        assert_eq!(
            json(&probe).get("fingerprint").and_then(Value::as_str),
            Some(fp_a.as_str()),
            "fleet split after abort",
        );
        assert!(probe.contains("\"staged\":null"), "staged leaked: {probe}");
        assert_eq!(file_fingerprint(&r.bundle), fp_a, "disk not restored");
    }
    for user in USERS {
        let (status, body) = get(router.addr(), &format!("/recommend/{user}?k=4"));
        assert_eq!(status, 200);
        assert_eq!(json(&body).get("items"), Some(&a.recommend_raw(user, 4).unwrap().to_value()));
    }
    // The abort path released the pause gate.
    let (_, health) = get(router.addr(), "/healthz");
    assert_eq!(
        json(&health).get("paused").and_then(Value::as_bool),
        Some(false),
        "router left paused after abort",
    );

    // The fleet is clean: the same rollout retried without the fault
    // completes.
    let report = rollout(&spec, &candidate).expect("retry after abort succeeds");
    assert_eq!(
        format!("{:016x}", report.fingerprint),
        file_fingerprint(&candidate)
    );

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn pause_parks_requests_until_resume_and_sheds_past_the_valve() {
    let a = bundle(1.0, "pause");
    let scratch = Scratch::new("pause");
    let (handles, specs) = start_replicas(&scratch, &a, 1);
    let config = RouterConfig {
        pause_max_wait: Duration::from_secs(5),
        ..router_config(&specs)
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new()))
        .expect("router starts");

    let (status, body) = post(router.addr(), "/fleet/pause");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("drained").and_then(Value::as_bool),
        Some(true),
        "idle fleet drains instantly",
    );
    let (_, health) = get(router.addr(), "/healthz");
    assert_eq!(json(&health).get("paused").and_then(Value::as_bool), Some(true));

    // A request issued while paused parks at the gate — it neither fails
    // nor completes until resume lifts it.
    let router_addr = router.addr();
    let t0 = Instant::now();
    let parked = std::thread::spawn(move || {
        let r = get(router_addr, "/recommend/u1?k=3");
        (r, t0.elapsed())
    });
    std::thread::sleep(Duration::from_millis(300));
    let (status, _) = post(router.addr(), "/fleet/resume");
    assert_eq!(status, 200);
    let ((status, body), waited) = parked.join().expect("parked request");
    assert_eq!(status, 200, "parked request must complete, not drop: {body}");
    assert_eq!(json(&body).get("items"), Some(&a.recommend_raw("u1", 3).unwrap().to_value()));
    assert!(
        waited >= Duration::from_millis(250),
        "request did not park across the pause window ({waited:?})"
    );

    router.shutdown();

    // Separate router with a tight valve: a pause that outlasts
    // `pause_max_wait` sheds with 503 + Retry-After instead of wedging
    // the client forever.
    let config = RouterConfig {
        pause_max_wait: Duration::from_millis(100),
        pause_guard: Duration::from_secs(2),
        ..router_config(&specs)
    };
    let router = clapf_fleet::start_router(config, Arc::new(Registry::new()))
        .expect("router starts");
    let (status, _) = post(router.addr(), "/fleet/pause");
    assert_eq!(status, 200);
    let bytes = raw(router.addr(), "GET", "/recommend/u1?k=3");
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.starts_with("HTTP/1.1 503"), "expected shed, got {text:?}");
    assert!(text.contains("Retry-After"), "shed must carry Retry-After: {text}");

    // The pause guard auto-resumes a pause whose driver crashed.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, health) = get(router.addr(), "/healthz");
        if json(&health).get("paused").and_then(Value::as_bool) == Some(false) {
            break;
        }
        assert!(Instant::now() < deadline, "pause guard never fired");
        std::thread::sleep(Duration::from_millis(100));
    }
    let (status, _) = get(router.addr(), "/recommend/u1?k=3");
    assert_eq!(status, 200, "fleet must serve again after the guard fires");

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}
