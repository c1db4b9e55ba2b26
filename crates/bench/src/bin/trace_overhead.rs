//! Measures what request tracing costs the serve path (ISSUE 8).
//!
//! Three numbers, landing in `results/BENCH_trace.json`:
//!
//! * **Disabled sampler cost** — ns per [`Tracer::sample`] call when
//!   sampling is off. The budget is "one relaxed atomic load": the check
//!   every request pays forever, whether or not tracing is ever enabled.
//! * **End-to-end overhead** — keep-alive `/recommend` throughput against
//!   a real event-loop server with tracing off, at a realistic 1-in-64
//!   head sample, and at 1-in-1 (every request traced). Rounds interleave
//!   across the three servers and the best round per mode is kept, so
//!   drift (thermal, scheduler) hits every mode equally. The gate wired
//!   into tier-1 is ≤ 2% at the sampled rate.
//! * **Bit identity** — the warmup passes replay an identical request
//!   sequence (all users: a full miss cycle, then a full hit cycle)
//!   against the untraced and fully-traced servers and assert the bodies
//!   are byte-identical. Tracing only reads clocks; it must never change
//!   an answer.

use bench::Cli;
use clapf_data::loader::{load_ratings_reader, Separator};
use clapf_eval::report;
use clapf_mf::{Init, MfModel};
use clapf_serve::{start, ModelBundle, ServeConfig};
use clapf_telemetry::{Registry, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One keep-alive request; returns status and body.
fn request(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, path: &str) -> (u16, String) {
    write!(writer, "GET {path} HTTP/1.1\r\nHost: b\r\n\r\n").expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {line:?}"));
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(|v| v.trim().to_string())
        {
            content_length = v.parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One booted server plus a warm keep-alive client.
struct Lane {
    server: clapf_serve::ServerHandle,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Lane {
    fn boot(bundle_path: &std::path::Path, trace_sample: u64) -> Lane {
        let server = start(
            bundle_path.to_path_buf(),
            ServeConfig {
                trace_sample,
                ..ServeConfig::default()
            },
            Arc::new(Registry::new()),
        )
        .expect("server boots");
        let addr: SocketAddr = server.addr();
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone stream");
        let reader = BufReader::new(stream);
        Lane {
            server,
            writer,
            reader,
        }
    }

    /// Replays `/recommend/u{0..n}?k={k}` once, returning the bodies.
    fn cycle(&mut self, n_users: u32, k: usize) -> Vec<String> {
        (0..n_users)
            .map(|u| {
                let (status, body) =
                    request(&mut self.writer, &mut self.reader, &format!("/recommend/u{u}?k={k}"));
                assert_eq!(status, 200, "u{u}");
                body
            })
            .collect()
    }

    /// Times `requests` cache-hot requests round-robin over the users.
    fn measure(&mut self, n_users: u32, k: usize, requests: usize) -> Duration {
        let t0 = Instant::now();
        for i in 0..requests {
            let u = i as u32 % n_users;
            let (status, _) =
                request(&mut self.writer, &mut self.reader, &format!("/recommend/u{u}?k={k}"));
            assert_eq!(status, 200);
        }
        t0.elapsed()
    }
}

#[derive(Serialize)]
struct TraceOverheadReport {
    scale: String,
    n_users: u32,
    n_items: u32,
    dim: usize,
    k: usize,
    rounds: usize,
    requests_per_round: usize,
    /// ns per `Tracer::sample()` call with sampling disabled (the always-on
    /// cost: one relaxed load).
    disabled_sample_ns: f64,
    /// Head-sampling rate of the "sampled" lane.
    sample_every: u64,
    qps_off: f64,
    qps_sampled: f64,
    qps_full: f64,
    /// Throughput cost of 1-in-`sample_every` sampling vs. tracing off, in
    /// percent (negative = within noise). The tier-1 gate is ≤ 2.0.
    overhead_sampled_pct: f64,
    /// Same, with every request traced.
    overhead_full_pct: f64,
    /// Warmup replays byte-compared untraced vs. fully-traced bodies.
    responses_bit_identical: bool,
}

fn main() {
    let cli = Cli::parse();
    let (n_users, n_items, dim, requests, rounds, sample_iters) = match cli.scale_name {
        "fast" => (64u32, 2_000u32, 16usize, 4_000usize, 5usize, 1usize << 24),
        _ => (256, 8_000, 32, 40_000, 7, 1usize << 26),
    };
    let k = 10usize;
    let sample_every = 64u64;

    // Disabled-sampler cost: the per-request tax when tracing is off.
    let tracer = std::hint::black_box(Tracer::disabled());
    let t0 = Instant::now();
    for _ in 0..sample_iters {
        std::hint::black_box(tracer.sample());
    }
    let disabled_sample_ns = t0.elapsed().as_nanos() as f64 / sample_iters as f64;
    eprintln!("disabled Tracer::sample(): {disabled_sample_ns:.2} ns/call");

    // Synthetic bundle, same loader path a real `clapf fit --save` takes.
    let mut csv = String::new();
    for u in 0..n_users {
        for t in 0..8u32 {
            let i = (u * 13 + t * 97) % n_items;
            csv.push_str(&format!("u{u},i{i},5\n"));
        }
    }
    let loaded = load_ratings_reader(std::io::Cursor::new(csv), Separator::Comma, 3.0)
        .expect("synthetic ratings load");
    let mut rng = SmallRng::seed_from_u64(cli.scale.seed);
    let model = MfModel::new(
        loaded.interactions.n_users(),
        loaded.interactions.n_items(),
        dim,
        Init::default(),
        &mut rng,
    );
    let bundle = ModelBundle::new(
        format!("trace-overhead fixture d={dim}"),
        model,
        loaded.ids,
        &loaded.interactions,
    );
    let dir = std::env::temp_dir().join(format!("clapf-trace-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle_path = dir.join("bundle.json");
    bundle.save(&bundle_path).expect("save bundle");

    let mut off = Lane::boot(&bundle_path, 0);
    let mut sampled = Lane::boot(&bundle_path, sample_every);
    let mut full = Lane::boot(&bundle_path, 1);

    // Warmup doubles as the bit-identity check: a full miss cycle (every
    // user scored through the batcher) then a full hit cycle, byte-compared
    // between the untraced and fully-traced servers.
    let miss_off = off.cycle(n_users, k);
    let miss_full = full.cycle(n_users, k);
    assert_eq!(miss_off, miss_full, "tracing changed a miss response");
    sampled.cycle(n_users, k);
    let hit_off = off.cycle(n_users, k);
    let hit_full = full.cycle(n_users, k);
    assert_eq!(hit_off, hit_full, "tracing changed a hit response");
    sampled.cycle(n_users, k);
    eprintln!("bit identity: {} bodies byte-identical untraced vs. 1-in-1", 2 * n_users);

    // Interleaved best-of-N: each round times all three lanes back to back.
    let mut best = [Duration::MAX; 3];
    for round in 0..rounds {
        for (slot, lane) in [&mut off, &mut sampled, &mut full].into_iter().enumerate() {
            let d = lane.measure(n_users, k, requests);
            if d < best[slot] {
                best[slot] = d;
            }
            eprintln!(
                "round {round} lane {slot}: {:.0} req/s",
                requests as f64 / d.as_secs_f64()
            );
        }
    }
    off.server.shutdown();
    sampled.server.shutdown();
    full.server.shutdown();

    let qps = |d: Duration| requests as f64 / d.as_secs_f64();
    let (qps_off, qps_sampled, qps_full) = (qps(best[0]), qps(best[1]), qps(best[2]));
    let pct = |traced: f64| (qps_off / traced - 1.0) * 100.0;
    let out = TraceOverheadReport {
        scale: cli.scale_name.to_string(),
        n_users,
        n_items,
        dim,
        k,
        rounds,
        requests_per_round: requests,
        disabled_sample_ns,
        sample_every,
        qps_off,
        qps_sampled,
        qps_full,
        overhead_sampled_pct: pct(qps_sampled),
        overhead_full_pct: pct(qps_full),
        responses_bit_identical: true,
    };
    eprintln!(
        "off {qps_off:.0} qps | 1-in-{sample_every} {qps_sampled:.0} qps ({:+.2}%) | \
         1-in-1 {qps_full:.0} qps ({:+.2}%)",
        out.overhead_sampled_pct, out.overhead_full_pct
    );
    let path = cli.out_dir.join("BENCH_trace.json");
    report::write_json(&path, &out).expect("write trace overhead results");
    eprintln!("wrote {}", path.display());
    std::fs::remove_dir_all(&dir).ok();
}
