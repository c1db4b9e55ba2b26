//! Hot-reload and handler behaviour under injected faults.
//!
//! Every test serializes on `clapf_faults::exclusive()` — failpoints are
//! process-global, so a concurrently armed `serve.handler` fault would
//! bleed into an unrelated test's requests.

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_data::ItemId;
use clapf_mf::{Init, MfModel};
use clapf_serve::{call, start, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- fixtures

fn bundle(slope: f32, tag: &str) -> ModelBundle {
    let csv = "u1,i0,5\nu1,i1,5\nu2,i1,4\nu2,i2,5\nu3,i3,5\n";
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
    ModelBundle::new(format!("fault-{tag}"), model, loaded.ids, &loaded.interactions)
}

fn temp_bundle_file(tag: &str, b: &ModelBundle) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapf-serve-faults-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bundle.json");
    b.save(&path).unwrap();
    path
}

fn start_server(path: PathBuf, config: ServeConfig) -> clapf_serve::ServerHandle {
    start(path, config, Arc::new(Registry::new())).expect("server starts")
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

fn generation_of(addr: SocketAddr) -> u64 {
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let key = "\"generation\":";
    let rest = &body[body.find(key).expect("generation field") + key.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("generation is a number")
}

// ------------------------------------------------------------------- tests

#[test]
fn torn_external_write_is_never_served_and_recovery_is_automatic() {
    // A non-atomic external writer (not our atomic `save`) crashes midway:
    // the watcher must reject the torn file, keep serving the old model,
    // and pick up the next complete write without intervention.
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "torn-a");
    let b = bundle(-1.0, "torn-b");
    let path = temp_bundle_file("torn", &a);
    let server = start_server(
        path.clone(),
        ServeConfig {
            watch_poll: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();
    assert_eq!(generation_of(addr), 0);

    // Tear the bundle on disk the way a crashed plain `fs::write` would.
    let body = b.to_image();
    std::fs::write(&path, &body[..body.len() / 2]).unwrap();

    // Give the watcher several polls on the torn file; it must not swap.
    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(generation_of(addr), 0, "torn bundle was served");
    let (status, body_r) = get(addr, "/recommend/u1?k=2");
    assert_eq!(status, 200, "{body_r}");

    // The writer finishes (a complete file lands); the watcher recovers.
    b.save(&path).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while generation_of(addr) != 1 {
        assert!(Instant::now() < deadline, "watcher never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn watcher_survives_injected_poll_errors() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "poll-a");
    let b = bundle(-1.0, "poll-b");
    let path = temp_bundle_file("poll", &a);
    let server = start_server(
        path.clone(),
        ServeConfig {
            watch_poll: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // The next few stat polls fail; the watcher must skip those rounds,
    // keep serving, and reload once polling works again.
    clapf_faults::arm_nth("serve.watch.poll", clapf_faults::Fault::Io, 0, Some(3));
    b.save(&path).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while generation_of(addr) != 1 {
        assert!(Instant::now() < deadline, "watcher never reloaded");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        clapf_faults::hits("serve.watch.poll") >= 3,
        "poll failpoint was not exercised"
    );

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn rapid_repeated_reloads_never_serve_a_torn_model() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "rapid-a");
    let b = bundle(-1.0, "rapid-b");
    let path = temp_bundle_file("rapid", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    for round in 0..10u64 {
        let next = if round % 2 == 0 { &b } else { &a };
        next.save(&path).unwrap();
        let (status, body) = post(addr, "/reload");
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(generation_of(addr), round + 1);
        let (status, body) = get(addr, "/recommend/u2?k=2");
        assert_eq!(status, 200, "round {round}: {body}");
    }

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn handler_panic_is_isolated_to_one_response() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "panic");
    let path = temp_bundle_file("panic", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    clapf_faults::arm_nth("serve.handler", clapf_faults::Fault::Panic, 0, Some(1));
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("panicked"), "{body}");

    // The worker survived: subsequent requests are served normally and the
    // panic is visible in the metrics.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("serve_panics 1"), "{metrics}");

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn handler_io_fault_is_a_typed_500() {
    let _guard = clapf_faults::exclusive();
    let a = bundle(1.0, "io500");
    let path = temp_bundle_file("io500", &a);
    let server = start_server(path.clone(), ServeConfig::default());
    let addr = server.addr();

    clapf_faults::arm_nth("serve.handler", clapf_faults::Fault::Io, 0, Some(1));
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("handler fault"), "{body}");
    assert_eq!(get(addr, "/healthz").0, 200);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn batch_panic_fails_every_coalesced_waiter_and_frees_the_key() {
    let _guard = clapf_faults::exclusive();
    let b = bundle(1.0, "batch-panic");
    let path = temp_bundle_file("batch-panic", &b);
    let registry = Arc::new(Registry::new());
    let server = start(
        path.clone(),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("server starts");
    let addr = server.addr();

    // Occupy the single scorer with a delayed batch for u1, so the u2
    // requests below all park on one queued key.
    clapf_faults::arm_nth(
        "serve.batch.flush",
        clapf_faults::Fault::Delay { ms: 400 },
        0,
        Some(1),
    );
    let wait_for = |what: &str, ready: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let first = std::thread::spawn(move || get(addr, "/recommend/u1?k=2"));
    wait_for("the u1 batch", &|| clapf_faults::hits("serve.batch.flush") == 1);
    let waiters: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(move || get(addr, "/recommend/u2?k=3")))
        .collect();
    wait_for("the u2 requests to park", &|| {
        registry.counter("serve.cache.coalesced").get() == 3
    });
    // The u2 batch is next through the failpoint: it panics.
    clapf_faults::arm_nth("serve.batch.flush", clapf_faults::Fault::Panic, 0, Some(1));

    assert_eq!(first.join().unwrap().0, 200);
    for w in waiters {
        let (status, body) = w.join().unwrap();
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("panicked"), "{body}");
    }
    assert_eq!(registry.counter("serve.panics").get(), 1);
    assert_eq!(registry.counter("serve.cache.misses").get(), 2);
    assert_eq!(registry.counter("serve.cache.coalesced").get(), 3);

    // The scorer survived and the key was released: a retry recomputes.
    let (status, body) = get(addr, "/recommend/u2?k=3");
    assert_eq!(status, 200, "{body}");
    let want: Vec<String> = b
        .recommend_raw("u2", 3)
        .unwrap()
        .iter()
        .map(|i| format!("{i:?}"))
        .collect();
    assert!(body.contains(&format!("\"items\":[{}]", want.join(","))), "{body}");
    assert_eq!(registry.counter("serve.cache.misses").get(), 3);

    server.shutdown();
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
