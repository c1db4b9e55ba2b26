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
//! Exits nonzero (panics) on any violation. Connection count via
//! `CLAPF_SERVE_CONNS` (default 2000).

use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_mf::{Init, MfModel};
use clapf_serve::{start, ModelBundle, ServeConfig};
use clapf_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Threads currently in this process, from /proc (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn main() {
    let n_conns: usize = std::env::var("CLAPF_SERVE_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let rounds = 3usize;
    let (n_users, n_items, dim) = (1200u32, 2400u32, 8usize);
    let k = 10usize;

    // Synthetic bundle, same construction as a real `clapf fit --save`.
    let mut csv = String::new();
    for u in 0..n_users {
        for t in 0..6u32 {
            let i = (u * 7 + t * 131) % n_items;
            csv.push_str(&format!("u{u},i{i},5\n"));
        }
    }
    let loaded = load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0)
        .expect("synthetic ratings load");
    let mut rng = SmallRng::seed_from_u64(7);
    let model = MfModel::new(
        loaded.interactions.n_users(),
        loaded.interactions.n_items(),
        dim,
        Init::default(),
        &mut rng,
    );
    let bundle = ModelBundle::new(
        "serve-conns fixture".into(),
        model,
        loaded.ids,
        &loaded.interactions,
    );
    let dir = std::env::temp_dir().join(format!("clapf-serve-conns-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle_path = dir.join("bundle.json");
    bundle.save(&bundle_path).expect("save bundle");

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

    let threads_before = thread_count();
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
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::with_capacity(n_conns);
    for c in 0..n_conns {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{c} failed: {e}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        conns.push((stream, reader));
    }
    eprintln!("opened {n_conns} keep-alive connections");

    for round in 0..rounds {
        // Write phase: every socket gets a request before any response is
        // read — all n_conns requests are concurrently in flight.
        for (c, (writer, _)) in conns.iter_mut().enumerate() {
            let user = user_of(c);
            write!(writer, "GET /recommend/{user}?k={k} HTTP/1.1\r\nHost: s\r\n\r\n")
                .unwrap_or_else(|e| panic!("round {round} send #{c}: {e}"));
        }
        // Read phase: frame each response and check it bit-for-bit.
        for (c, (_, reader)) in conns.iter_mut().enumerate() {
            let user = user_of(c);
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .unwrap_or_else(|e| panic!("round {round} status #{c}: {e}"));
            assert!(line.contains(" 200 "), "round {round} conn {c}: {line:?}");
            let mut content_length = 0usize;
            loop {
                line.clear();
                reader.read_line(&mut line).expect("header");
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().expect("content-length");
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).expect("body");
            let body = String::from_utf8(body).expect("utf8 body");
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
    if let (Some(before), Some(())) = (threads_before, Some(())) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let now = thread_count().expect("thread count");
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
