//! Connection-scale smoke for the event-driven transport (tier-1, ISSUE 7).
//!
//! Holds ~2000 concurrent keep-alive connections open against one
//! event-loop server and proves three things the unit tests cannot:
//!
//! 1. **Scale.** Every connection is live simultaneously (requests are
//!    written across all sockets before any response is read, so thousands
//!    are genuinely in flight), over several rounds of keep-alive reuse
//!    with a hot/cold user mix driving both cache hits and batched misses.
//! 2. **Bit-identity.** Every response's item list must equal the offline
//!    evaluator's list for that user, byte for byte.
//! 3. **No leaks.** After graceful shutdown the process thread count is
//!    back to where it started — no scorer, loop, or watcher thread
//!    survives the drain.
//!
//! Exits nonzero (panics) on any violation.

use bench::fixture::{scratch_dir, Fixture};
use bench::HTTP_TIMEOUT;
use clapf_serve::{start, Conn, ServeConfig};
use clapf_telemetry::Registry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Concurrent keep-alive connections held open.
const CONNS: usize = 2000;

fn main() {
    let [] = bench::parse_own(&[]);
    let n_conns = CONNS;
    let rounds = 3usize;
    let k = 10usize;
    let fixture = Fixture {
        per_user: 6,
        stride: (7, 131),
        ..Fixture::new(1200, 2400, 8)
    };
    let n_users = fixture.users;
    let dir = scratch_dir("serve-conns");
    let bundle_path = dir.join("bundle.json");
    let bundle = fixture
        .save("serve-conns", 7, &bundle_path)
        .expect("save bundle");

    // Hot/cold mix: 8 hot users shared by half the connections (cache hits
    // + miss coalescing), the rest spread over the catalog (batched cold
    // misses). Ground truth comes from the offline evaluator.
    let user_of = |conn: usize| -> String {
        if conn % 2 == 0 {
            format!("u{}", conn % 8)
        } else {
            format!("u{}", conn % n_users as usize)
        }
    };
    let mut expected: HashMap<String, String> = HashMap::new();
    for conn in 0..n_conns {
        let user = user_of(conn);
        expected.entry(user.clone()).or_insert_with(|| {
            let items = bundle.recommend_raw(&user, k).expect("offline top-k");
            let rendered: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
            format!("[{}]", rendered.join(","))
        });
    }

    let threads_before = bench::proc_status("Threads");
    let registry = Arc::new(Registry::new());
    let server = start(
        bundle_path.clone(),
        ServeConfig {
            workers: 2,
            max_conns: n_conns + 64,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("server boots");
    let addr = server.addr();

    // Open every connection up front; all stay open to the end.
    let mut conns: Vec<Conn> = (0..n_conns)
        .map(|c| Conn::open(addr, HTTP_TIMEOUT).unwrap_or_else(|e| panic!("connect #{c} failed: {e}")))
        .collect();
    eprintln!("opened {n_conns} keep-alive connections");

    for round in 0..rounds {
        // Write phase: every socket gets a request before any response is
        // read — all n_conns requests are concurrently in flight.
        for (c, conn) in conns.iter_mut().enumerate() {
            let user = user_of(c);
            conn.send("GET", &format!("/recommend/{user}?k={k}"), None)
                .unwrap_or_else(|e| panic!("round {round} send #{c}: {e}"));
        }
        // Read phase: frame each response and check it bit-for-bit.
        for (c, conn) in conns.iter_mut().enumerate() {
            let user = user_of(c);
            let r = conn
                .recv()
                .unwrap_or_else(|e| panic!("round {round} response #{c}: {e}"));
            let body = r.text().unwrap_or_else(|e| panic!("round {round} response #{c}: {e}"));
            assert_eq!(r.status, 200, "round {round} conn {c}: {body}");
            let want_items = &expected[&user];
            let got_items = body
                .split_once("\"items\":")
                .map(|(_, t)| t.trim_end_matches('}'))
                .unwrap_or("");
            assert_eq!(
                got_items, want_items,
                "round {round} conn {c} user {user}: served list diverged from offline"
            );
        }
        eprintln!("round {}/{rounds}: {n_conns} responses bit-identical", round + 1);
    }

    let peak = registry.gauge("serve.conns").get();
    assert!(
        peak >= n_conns as f64,
        "serve.conns gauge {peak} never reached {n_conns}"
    );

    drop(conns);
    server.shutdown();

    // Thread-leak check: give the OS a beat to reap, then compare.
    if let Some(before) = threads_before {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let now = bench::proc_status("Threads").expect("thread count");
            if now <= before {
                eprintln!("threads: {before} before, {now} after shutdown — no leaks");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "thread leak: {before} before, {now} after shutdown"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    std::fs::remove_dir_all(&dir).ok();
    eprintln!("serve_conns smoke passed: {n_conns} conns x {rounds} rounds, zero leaks");
}
