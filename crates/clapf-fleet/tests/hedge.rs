//! Hedged reads on the router worker's own thread (DESIGN.md §17): a
//! warmed-up router that fires hedges runs no helper thread, and the
//! primary a hedge beat is abandoned — its late reply never answers a
//! later request on the same worker.
//!
//! Both replicas are hand-rolled fakes that echo the request target and
//! their own name, and answer `/recommend/slow-*` only after [`SLOW`] on
//! the replica told to be slow.

use clapf_fleet::{HedgePolicy, Ring, RouterConfig, RouterHandle};
use clapf_serve::call;
use clapf_telemetry::Registry;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// How long the slow replica sits on a `/recommend/slow-*` request.
const SLOW: Duration = Duration::from_millis(500);

/// A keep-alive fake replica named `name`. Every reply is a JSON body
/// naming the replica and the request target; when `slow` is set,
/// `/recommend/slow-*` requests are answered only after [`SLOW`].
fn fake_replica(name: &'static str, slow: bool) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || serve_fake_conn(stream, name, slow));
        }
    });
    addr
}

fn serve_fake_conn(stream: TcpStream, name: &str, slow: bool) {
    let mut reader = BufReader::new(stream);
    loop {
        // Headers only; the router never sends request bodies.
        let mut request_line = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) if line == "\r\n" => break,
                Ok(_) if request_line.is_empty() => request_line = line.clone(),
                Ok(_) => {}
            }
        }
        let target = request_line.split(' ').nth(1).unwrap_or("").to_string();
        if slow && target.starts_with("/recommend/slow-") {
            std::thread::sleep(SLOW);
        }
        let body = format!(r#"{{"replica":"{name}","target":"{target}"}}"#);
        let reply = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if reader.get_mut().write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

/// A router over `[slow replica, fast replica]`, so slot 0 is the slow one.
fn router(workers: usize, hedge: HedgePolicy) -> RouterHandle {
    let config = RouterConfig {
        replicas: vec![fake_replica("slow", true), fake_replica("fast", false)],
        workers,
        hedge,
        fallback_cache: 0,
        ..RouterConfig::default()
    };
    clapf_fleet::start_router(config, Arc::new(Registry::new())).unwrap()
}

/// The first user `{prefix}{n}` whose ring position is slot 0, the slow
/// replica (the router builds the same ring over its two seed slots).
fn user_on_slot_0(prefix: &str) -> String {
    let ring = Ring::new(2);
    (0..)
        .map(|n| format!("{prefix}{n}"))
        .find(|u| ring.slot_for(u) == 0)
        .unwrap()
}

fn get(router: &RouterHandle, path: &str) -> String {
    let reply = call(router.addr(), "GET", path, Duration::from_secs(10)).unwrap();
    assert_eq!(reply.status, 200, "{path}");
    String::from_utf8(reply.body).unwrap()
}

/// A counter on the router's `/metrics` dump (dots render as underscores).
fn metric(router: &RouterHandle, name: &str) -> u64 {
    let rendered = name.replace('.', "_");
    get(router, "/metrics")
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == rendered).then(|| v.parse::<f64>().ok())?
        })
        .map_or(0, |v| v as u64)
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn a_warmed_up_router_fires_hedges_without_a_helper_thread() {
    // Past 64 latency samples the hedge delay arms from the window's p99
    // (clamped to at most 250 ms), so the slow user's 500 ms primary is
    // hedged to the fast replica.
    let router = router(4, HedgePolicy::default());
    for i in 0..70 {
        get(&router, &format!("/recommend/u{i}?k=3"));
    }
    let slow_user = user_on_slot_0("slow-");
    let body = get(&router, &format!("/recommend/{slow_user}?k=3"));
    assert!(body.contains(r#""replica":"fast""#), "the hedge answered: {body}");
    assert!(metric(&router, "fleet.hedge.fired") >= 1, "no hedge fired");
    assert!(metric(&router, "fleet.hedge.wins") >= 1, "the hedge did not win");
    if cfg!(target_os = "linux") {
        let names = thread_names();
        assert!(
            !names.iter().any(|n| n.starts_with("clapf-fleet-hed")),
            "a hedge helper thread is running: {names:?}"
        );
    }
    router.shutdown();
}

#[test]
fn the_primary_a_hedge_beat_never_answers_a_later_request() {
    // One worker, so the second request runs on the worker that abandoned
    // the slow primary; a fixed delay hedges from the first request on.
    let router = router(
        1,
        HedgePolicy {
            fixed_delay: Some(Duration::from_millis(150)),
            ..HedgePolicy::default()
        },
    );
    let slow_user = user_on_slot_0("slow-");
    let hedged = get(&router, &format!("/recommend/{slow_user}"));
    assert_eq!(
        hedged,
        format!(r#"{{"replica":"fast","target":"/recommend/{slow_user}"}}"#),
        "the hedge wins against a {SLOW:?} primary"
    );
    assert_eq!(metric(&router, "fleet.hedge.wins"), 1);

    // The next request to the slow replica's slot gets that replica's
    // answer to its own target, not the abandoned reply.
    let next_user = user_on_slot_0("u");
    let next = get(&router, &format!("/recommend/{next_user}"));
    assert_eq!(
        next,
        format!(r#"{{"replica":"slow","target":"/recommend/{next_user}"}}"#)
    );
    router.shutdown();
}
