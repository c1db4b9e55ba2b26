//! Load generator for the `clapf-serve` HTTP server.
//!
//! Boots real servers (in-process, ephemeral ports) on a synthetic bundle
//! and drives `GET /recommend/{user}?k=10` from keep-alive clients whose
//! user ids follow a Zipf distribution — the skew that makes a top-k cache
//! pay. Results land in `results/BENCH_serve.json`.
//!
//! Two modes per leg:
//!
//! * **closed** — each client sends its next request the moment the
//!   previous response lands; measures saturated QPS and in-flight latency.
//! * **open** — requests arrive on a fixed schedule regardless of how the
//!   server is doing; latency is measured from the *intended* send time, so
//!   queueing delay is charged honestly (no coordinated omission), and
//!   overload shows up as a shed (503) rate instead of a silently slower
//!   client.
//!
//! The leg matrix runs the event loop with micro-batched scoring at batch
//! 32 vs. 1 (the batching A/B), with the cache on and off. The headline
//! number: uncached QPS must land within 2× of cached.
//!
//! A final `--fleet N` section boots a `clapf-fleet` router in
//! front of N event-loop replicas and records fleet QPS (N vs. 1 through
//! the same router), the failover blip when a replica dies mid-load, and
//! the rollout commit window (downtime) of a fleet-wide two-phase bundle
//! rollout under load. The fleet chaos soak is the `chaos` binary.

use bench::fixture::{scratch_dir, Fixture};
use bench::http::{call, Conn};
use bench::Cli;
use clapf_cli::flags::{Flag, Kind};
use clapf_fleet::{rollout, FleetSpec, ReplicaSpec, RouterConfig, RouterHandle};
use clapf_serve::{start, ServeConfig, ServerHandle};
use clapf_telemetry::{Histogram, Registry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every leg samples 1-in-this requests into the trace ring; the per-stage
/// means below attribute where cached vs. uncached time actually goes.
/// Sparse enough that the overhead gate (≤ 2%, `overhead`'s trace leg)
/// applies.
const TRACE_SAMPLE: u64 = 32;

/// Zipf(s) sampler over `0..n` via a precomputed CDF and binary search.
/// Hand-rolled: the vendored `rand` has no distribution zoo.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let x: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// One keep-alive request; returns the response status. Panics on protocol
/// errors — a load generator that silently drops errors measures nothing —
/// but passes 503 through so open-loop legs can count sheds.
fn request(conn: &mut Conn, path: &str) -> u16 {
    let status = conn.get(path).expect("keep-alive request").status;
    assert!(status == 200 || status == 503, "unexpected status {status}");
    status
}

/// Mean duration of one trace stage across a leg's sampled requests.
#[derive(Serialize)]
struct StageMean {
    stage: String,
    mean_us: f64,
    /// Sampled spans the mean is over.
    count: u64,
}

/// The parts of a `/debug/traces` body the stage means read.
#[derive(Deserialize)]
struct DebugTraces {
    traces: Vec<TraceDoc>,
}

#[derive(Deserialize)]
struct TraceDoc {
    spans: Vec<SpanDoc>,
}

#[derive(Deserialize)]
struct SpanDoc {
    stage: String,
    dur_us: u64,
}

/// Per-stage mean durations over the sampled traces in a `/debug/traces`
/// body — the leg's answer to "where did the time go".
fn stage_means(debug_traces_body: &str) -> Vec<StageMean> {
    let doc: DebugTraces = serde_json::from_str(debug_traces_body).expect("debug traces JSON");
    let mut acc: Vec<(String, u64, u64)> = Vec::new();
    for span in doc.traces.into_iter().flat_map(|t| t.spans) {
        match acc.iter_mut().find(|(s, _, _)| *s == span.stage) {
            Some((_, sum, n)) => {
                *sum += span.dur_us;
                *n += 1;
            }
            None => acc.push((span.stage, span.dur_us, 1)),
        }
    }
    let mut means: Vec<StageMean> = acc
        .into_iter()
        .map(|(stage, sum, n)| StageMean {
            stage,
            mean_us: sum as f64 / n as f64,
            count: n,
        })
        .collect();
    means.sort_by(|a, b| b.mean_us.partial_cmp(&a.mean_us).expect("finite means"));
    means
}

#[derive(Serialize)]
struct LoadRun {
    label: String,
    mode: &'static str,
    cache: &'static str,
    cache_capacity: usize,
    batch_max: usize,
    /// Open-loop arrival rate (0 for closed-loop legs).
    target_qps: f64,
    clients: usize,
    requests: u64,
    /// 503 responses (open-loop overload sheds).
    shed: u64,
    shed_rate: f64,
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    cache_hit_rate: f64,
    /// Misses answered by coalescing onto an in-flight computation.
    coalesced: u64,
    /// Mean users per scorer micro-batch.
    mean_batch_size: f64,
    /// Per-stage mean latency over the leg's sampled traces, slowest
    /// first — attributes the cached/uncached gap (queue wait vs. scoring
    /// vs. parse/render overheads).
    stage_means: Vec<StageMean>,
}

/// One fleet leg: closed-loop uncached load through the router, optionally
/// with a mid-leg event (replica kill or fleet-wide rollout).
#[derive(Serialize)]
struct FleetRun {
    label: String,
    /// Replica count behind the router.
    fleet: usize,
    clients: usize,
    requests: u64,
    /// Non-200 responses — the zero-dropped-requests criterion.
    errors: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// "none", "kill" or "rollout".
    event: &'static str,
    /// When the event fired, relative to leg start (0 for "none").
    event_at_ms: f64,
    /// Worst request latency completing within 2 s of the event — the
    /// client-visible failover/rollout blip (0 for "none").
    blip_ms: f64,
    /// Rollout distribute+stage+verify wall clock (traffic flowing).
    rollout_staged_ms: f64,
    /// Rollout pause→commit→resume wall clock — the fleet's downtime.
    rollout_commit_window_ms: f64,
}

/// The `--fleet N` section of the report (ISSUE 9).
#[derive(Serialize)]
struct FleetSection {
    replicas: usize,
    /// True when the box has fewer cores than fleet processes, i.e. every
    /// replica time-slices one saturated core and no parallel speedup is
    /// physically available — `fleet_speedup` then measures the overhead
    /// of splitting (probes, wake churn), not the fleet's scaling.
    core_bound: bool,
    /// Fleet-of-N QPS over fleet-of-1 QPS, same router, same clients.
    fleet_speedup: f64,
    failover_blip_ms: f64,
    failover_errors: u64,
    rollout_commit_window_ms: f64,
    rollout_errors: u64,
    runs: Vec<FleetRun>,
}

#[derive(Serialize)]
struct ServeLoadReport {
    n_users: u32,
    n_items: u32,
    dim: usize,
    k: usize,
    clients: usize,
    zipf_s: f64,
    duration_secs: f64,
    /// Headline: cached QPS / uncached QPS at
    /// saturating concurrency, where micro-batches fill. Target ≤ 2.0.
    cached_over_uncached: f64,
    /// Uncached QPS, batch_max 32 vs. 1, same concurrency —
    /// what micro-batching itself buys.
    batch_speedup: f64,
    runs: Vec<LoadRun>,
    fleet: FleetSection,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// One leg of the matrix.
struct Leg {
    label: String,
    cache_capacity: usize,
    cache_label: &'static str,
    batch_max: usize,
    /// `Some(rate)` runs open-loop at `rate` requests/sec; `None` closed.
    open_rate: Option<f64>,
    /// Concurrent keep-alive clients; `None` uses the scale default (the
    /// low-concurrency p99 legs). Micro-batching legs override upward —
    /// cross-request batches only fill when requests actually overlap.
    clients: Option<usize>,
}

/// Everything every leg shares.
struct LoadSpec {
    clients: usize,
    duration: Duration,
    k: usize,
    seed: u64,
}

fn run_leg(bundle_path: &std::path::Path, leg: &Leg, spec: &LoadSpec, zipf: &Zipf) -> LoadRun {
    let LoadSpec {
        duration, k, seed, ..
    } = *spec;
    let clients = leg.clients.unwrap_or(spec.clients);
    let registry = Arc::new(Registry::new());
    let server = start(
        bundle_path.to_path_buf(),
        ServeConfig {
            cache_capacity: leg.cache_capacity,
            // Scorers contend with the loop thread for cores.
            workers: 2,
            batch_max: leg.batch_max,
            trace_sample: TRACE_SAMPLE,
            ..ServeConfig::default()
        },
        Arc::clone(&registry),
    )
    .expect("server boots");
    let addr: SocketAddr = server.addr();

    let started = Instant::now();
    let mut threads = Vec::new();
    for c in 0..clients {
        let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37));
        let zipf_cdf = zipf.cdf.clone();
        // Open loop: the aggregate arrival rate is split evenly across
        // clients, each ticking on its own fixed schedule.
        let tick = leg
            .open_rate
            .map(|rate| Duration::from_secs_f64(clients as f64 / rate));
        threads.push(std::thread::spawn(move || {
            let zipf = Zipf { cdf: zipf_cdf };
            let mut conn = Conn::open(addr).expect("connect");
            let mut latencies_ms = Vec::new();
            let mut shed = 0u64;
            let mut n = 0u64;
            loop {
                // Intended send time: closed-loop = now; open-loop = the
                // schedule slot, whether or not we are running behind.
                let intended = match tick {
                    None => Instant::now(),
                    Some(t) => {
                        let slot = started + t.mul_f64(n as f64);
                        if let Some(wait) = slot.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        slot
                    }
                };
                if started.elapsed() >= duration {
                    break;
                }
                n += 1;
                let user = zipf.sample(&mut rng);
                let status = request(&mut conn, &format!("/recommend/u{user}?k={k}"));
                if status == 503 {
                    shed += 1;
                } else {
                    latencies_ms.push(intended.elapsed().as_secs_f64() * 1e3);
                }
            }
            (latencies_ms, shed)
        }));
    }
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for t in threads {
        let (l, s) = t.join().expect("client thread");
        latencies_ms.extend(l);
        shed += s;
    }
    let wall = started.elapsed();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let hits = registry.counter("serve.cache.hits").get();
    let misses = registry.counter("serve.cache.misses").get();
    let coalesced = registry.counter("serve.cache.coalesced").get();
    let batch_hist = registry.histogram("serve.batch.size", || Histogram::exponential(1.0, 2.0, 6));
    let mean_batch_size = if batch_hist.count() > 0 {
        batch_hist.mean()
    } else {
        0.0
    };
    let (_, traces) = call(addr, "GET", "/debug/traces?n=128").expect("debug traces");
    let stage_means = stage_means(&traces);
    server.shutdown();

    let requests = latencies_ms.len() as u64 + shed;
    LoadRun {
        label: leg.label.clone(),
        mode: if leg.open_rate.is_some() {
            "open"
        } else {
            "closed"
        },
        cache: leg.cache_label,
        cache_capacity: leg.cache_capacity,
        batch_max: leg.batch_max,
        target_qps: leg.open_rate.unwrap_or(0.0),
        clients,
        requests,
        shed,
        shed_rate: shed as f64 / (requests as f64).max(1.0),
        qps: (requests - shed) as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&latencies_ms, 0.50),
        p95_ms: percentile(&latencies_ms, 0.95),
        p99_ms: percentile(&latencies_ms, 0.99),
        cache_hit_rate: hits as f64 / (hits + misses + coalesced).max(1) as f64,
        coalesced,
        mean_batch_size,
        stage_means,
    }
}

/// What happens mid-leg in a fleet run.
enum FleetEvent {
    None,
    /// Shut replica 0 down abruptly; the router must mask it.
    Kill,
    /// Drive a fleet-wide two-phase rollout of the candidate bundle.
    Rollout,
}

/// A booted fleet: N in-process replicas behind a router.
struct Fleet {
    replicas: Vec<ServerHandle>,
    addrs: Vec<SocketAddr>,
    bundles: Vec<PathBuf>,
    router: RouterHandle,
}

/// Boots `n` uncached replicas on private copies of `master` and a router
/// in front of them.
fn start_fleet(dir: &Path, master: &Path, n: usize, clients: usize) -> Fleet {
    let mut replicas = Vec::new();
    let mut addrs = Vec::new();
    let mut bundles = Vec::new();
    for i in 0..n {
        let bundle = dir.join(format!("fleet{n}-replica-{i}.json"));
        std::fs::copy(master, &bundle).expect("replica bundle copy");
        let handle = start(
            bundle.clone(),
            ServeConfig {
                cache_capacity: 0,
                workers: 1,
                // Micro-batching confounds the replica-count comparison on
                // a shared-core testbed: concentrating every client on one
                // replica fills batches that a sharded fleet cannot, which
                // is amortisation the single replica would not get with
                // replicas on separate machines. batch 1 isolates the
                // routing/sharding dimension itself.
                batch_max: 1,
                ..ServeConfig::default()
            },
            Arc::new(Registry::new()),
        )
        .expect("replica boots");
        addrs.push(handle.addr());
        replicas.push(handle);
        bundles.push(bundle);
    }
    let router = clapf_fleet::start_router(
        RouterConfig {
            replicas: addrs.clone(),
            // Router workers hold a client connection each for its
            // keep-alive lifetime, so the pool must cover every client.
            workers: clients + 2,
            health_interval: Duration::from_millis(250),
            ..RouterConfig::default()
        },
        Arc::new(Registry::new()),
    )
    .expect("router boots");
    Fleet {
        replicas,
        addrs,
        bundles,
        router,
    }
}

/// Where the fleet legs find their fixtures on disk.
struct FleetPaths {
    /// Scratch directory for per-replica bundle copies.
    dir: PathBuf,
    /// The bundle every replica starts on.
    master: PathBuf,
    /// The rollout candidate (different fingerprint).
    candidate: PathBuf,
}

/// Runs one closed-loop fleet leg: `clients` keep-alive clients hammer the
/// router for `spec.duration`; at 40% of the leg the event (if any) fires
/// on the main thread while load keeps flowing.
fn run_fleet_leg(
    paths: &FleetPaths,
    n: usize,
    clients: usize,
    spec: &LoadSpec,
    zipf: &Zipf,
    event: FleetEvent,
) -> FleetRun {
    let LoadSpec {
        duration, k, seed, ..
    } = *spec;
    let mut fleet = start_fleet(&paths.dir, &paths.master, n, clients);
    let addr = fleet.router.addr();

    // Clients run for at least `duration` but never stop while the mid-leg
    // event is still in progress — a rollout staged under full load can
    // outlast a short leg, and its commit window must land under load or
    // the zero-dropped-requests claim is vacuous.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let started = Instant::now();
    let mut threads = Vec::new();
    for c in 0..clients {
        let mut rng = SmallRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0xF1EE7));
        let zipf_cdf = zipf.cdf.clone();
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let zipf = Zipf { cdf: zipf_cdf };
            let mut conn = Conn::open(addr).expect("connect router");
            // (completed_at_secs since leg start, latency_ms, status)
            let mut records: Vec<(f64, f64, u16)> = Vec::new();
            while started.elapsed() < duration
                || !stop.load(std::sync::atomic::Ordering::Relaxed)
            {
                let user = zipf.sample(&mut rng);
                let sent = Instant::now();
                let status = request(&mut conn, &format!("/recommend/u{user}?k={k}"));
                records.push((
                    started.elapsed().as_secs_f64(),
                    sent.elapsed().as_secs_f64() * 1e3,
                    status,
                ));
            }
            records
        }));
    }

    let event_at = duration.mul_f64(0.4);
    if !matches!(event, FleetEvent::None) {
        if let Some(wait) = (started + event_at).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    let (event_name, event_at_ms, staged_ms, commit_ms) = match &event {
        FleetEvent::None => ("none", 0.0, 0.0, 0.0),
        FleetEvent::Kill => {
            fleet.replicas.remove(0).shutdown();
            ("kill", event_at.as_secs_f64() * 1e3, 0.0, 0.0)
        }
        FleetEvent::Rollout => {
            let fspec = FleetSpec {
                router: Some(addr),
                replicas: fleet
                    .addrs
                    .iter()
                    .zip(&fleet.bundles)
                    .map(|(&addr, bundle)| ReplicaSpec {
                        addr,
                        bundle: bundle.clone(),
                    })
                    .collect(),
            };
            let report = rollout(&fspec, &paths.candidate).expect("fleet rollout under load");
            // Let resumed traffic flow a moment so the post-commit regime
            // shows up in the records too.
            std::thread::sleep(Duration::from_millis(200));
            (
                "rollout",
                event_at.as_secs_f64() * 1e3,
                report.staged.as_secs_f64() * 1e3,
                report.commit_window.as_secs_f64() * 1e3,
            )
        }
    };
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut records: Vec<(f64, f64, u16)> = Vec::new();
    for t in threads {
        records.extend(t.join().expect("fleet client thread"));
    }
    let wall = started.elapsed();
    fleet.router.shutdown();
    for r in fleet.replicas {
        r.shutdown();
    }

    let errors = records.iter().filter(|(_, _, s)| *s != 200).count() as u64;
    let mut oks_ms: Vec<f64> = records
        .iter()
        .filter(|(_, _, s)| *s == 200)
        .map(|(_, l, _)| *l)
        .collect();
    oks_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let blip_ms = {
        // Kill recovers within the retry path, so a 2 s window after the
        // event suffices; a rollout's pause lands `staged` later, so its
        // window runs to the end of the leg.
        let (from, to) = match event {
            FleetEvent::None => (f64::INFINITY, f64::INFINITY),
            FleetEvent::Kill => (event_at.as_secs_f64(), event_at.as_secs_f64() + 2.0),
            FleetEvent::Rollout => (event_at.as_secs_f64(), f64::INFINITY),
        };
        records
            .iter()
            .filter(|(done, _, _)| (from..to).contains(done))
            .map(|(_, l, _)| *l)
            .fold(0.0, f64::max)
    };
    FleetRun {
        label: format!("fleet={n} {event_name} x{clients}"),
        fleet: n,
        clients,
        requests: records.len() as u64,
        errors,
        qps: oks_ms.len() as f64 / wall.as_secs_f64(),
        p50_ms: percentile(&oks_ms, 0.50),
        p99_ms: percentile(&oks_ms, 0.99),
        event: event_name,
        event_at_ms,
        blip_ms,
        rollout_staged_ms: staged_ms,
        rollout_commit_window_ms: commit_ms,
    }
}

fn main() {
    // `--fleet N` sizes the fleet section (replica count for the N-replica
    // legs); every other flag is the shared bench CLI.
    let cli = Cli::parse_with(&[Flag::optional(
        "--fleet",
        "N",
        Kind::COUNT,
        "replicas in the N-replica legs (default 3)",
    )]);
    let fleet_n = cli.int("--fleet", 3usize).max(1);
    // Scale knobs: users/items size the scoring cost per uncached request,
    // duration bounds the wall clock.
    let (n_users, n_items, secs, clients) = match cli.scale_name {
        "fast" => (2_000u32, 5_000u32, 2.0f64, 4usize),
        "medium" => (10_000, 20_000, 8.0, 6),
        _ => (20_000, 50_000, 20.0, 8),
    };
    let (dim, k, zipf_s) = (32usize, 10usize, 1.1f64);

    // The served bundle, and a second one with a different fingerprint —
    // the rollout candidate for the fleet leg (same data, fresh factors).
    let fixture = Fixture::new(n_users, n_items, dim);
    let dir = scratch_dir("serve-load");
    let bundle_path = dir.join("bundle.json");
    fixture
        .save("serve-load", cli.scale.seed, &bundle_path)
        .expect("save bundle");
    let candidate_path = dir.join("bundle-b.json");
    fixture
        .save("serve-load B", cli.scale.seed ^ 0xB00B5, &candidate_path)
        .expect("save candidate bundle");

    let zipf = Zipf::new(n_users as usize, zipf_s);
    let duration = Duration::from_secs_f64(secs);
    let spec = LoadSpec {
        clients,
        duration,
        k,
        seed: cli.scale.seed,
    };
    let cache_cap = 2 * n_users as usize;

    // Closed-loop matrix: batch 32 vs. 1 isolates what micro-batching
    // itself buys on the uncached path, at the default concurrency (the
    // p99 criterion) and at saturating concurrency: cross-request
    // micro-batches only fill when many requests overlap, so the headline
    // cached-vs-uncached ratio is measured there, where the batcher
    // actually amortizes the item-table sweep.
    let hi_clients = clients * 6;
    let mut legs = Vec::new();
    for (suffix, leg_clients) in [(String::new(), None), (format!(" x{hi_clients}"), Some(hi_clients))] {
        for (cap, cache_label, batch_max) in [(cache_cap, "on", 32), (0, "off", 32), (0, "off", 1)] {
            legs.push(Leg {
                label: format!("event batch={batch_max} cache={cache_label}{suffix}"),
                cache_capacity: cap,
                cache_label,
                batch_max,
                open_rate: None,
                clients: leg_clients,
            });
        }
    }

    let mut runs = Vec::new();
    let mut event_cached_qps = 0.0f64;
    for leg in &legs {
        let run = run_leg(&bundle_path, leg, &spec, &zipf);
        eprintln!(
            "{:>26} [{}]: {} req ({} shed), {:.0} qps, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, \
             hit rate {:.1}%, mean batch {:.1}",
            run.label,
            run.mode,
            run.requests,
            run.shed,
            run.qps,
            run.p50_ms,
            run.p95_ms,
            run.p99_ms,
            run.cache_hit_rate * 100.0,
            run.mean_batch_size,
        );
        let top: Vec<String> = run
            .stage_means
            .iter()
            .take(4)
            .map(|s| format!("{} {:.0}µs", s.stage, s.mean_us))
            .collect();
        eprintln!("{:>26}  slowest stages: {}", "", top.join(", "));
        if run.label == "event batch=32 cache=on" {
            event_cached_qps = run.qps;
        }
        runs.push(run);
    }

    // Open-loop legs: a fixed arrival rate at ~60% of the measured cached
    // capacity (healthy) and ~150% (overload — shed rate becomes the
    // signal). Derived from the closed-loop measurement so the legs stay
    // meaningful across machines and scales.
    let healthy = (event_cached_qps * 0.6).max(50.0);
    let overload = (event_cached_qps * 1.5).max(200.0);
    for (tag, rate, cap, cache_label) in [
        ("open 60pct cache=on", healthy, cache_cap, "on"),
        ("open 150pct cache=off", overload, 0usize, "off"),
    ] {
        let leg = Leg {
            label: format!("event batch=32 {tag}"),
            cache_capacity: cap,
            cache_label,
            batch_max: 32,
            open_rate: Some(rate),
            clients: None,
        };
        let run = run_leg(&bundle_path, &leg, &spec, &zipf);
        eprintln!(
            "{:>38} [{}] target {:.0} qps: {} req ({} shed, {:.1}%), {:.0} qps, p50 {:.3} ms, \
             p99 {:.3} ms",
            run.label,
            run.mode,
            run.target_qps,
            run.requests,
            run.shed,
            run.shed_rate * 100.0,
            run.qps,
            run.p50_ms,
            run.p99_ms,
        );
        runs.push(run);
    }

    let qps_of = |label: &str| {
        runs.iter()
            .find(|r| r.label == label)
            .map(|r| r.qps)
            .unwrap_or(f64::NAN)
    };
    let cached_over_uncached = qps_of(&format!("event batch=32 cache=on x{hi_clients}"))
        / qps_of(&format!("event batch=32 cache=off x{hi_clients}"));
    let batch_speedup = qps_of(&format!("event batch=32 cache=off x{hi_clients}"))
        / qps_of(&format!("event batch=1 cache=off x{hi_clients}"));
    eprintln!(
        "headline @ {hi_clients} clients: cached/uncached = {cached_over_uncached:.2}x \
         (target <= 2.0), batch=32 vs batch=1 speedup = {batch_speedup:.2}x"
    );

    // Fleet section: uncached closed-loop load through the
    // router, fleet of 1 vs. fleet of N, then a replica kill and a
    // fleet-wide rollout under the same load. Events need at least two
    // replicas — a fleet of one has nothing to fail over to.
    let mut fleet_runs = Vec::new();
    let mut fleet_legs: Vec<(usize, FleetEvent)> = vec![(1, FleetEvent::None)];
    if fleet_n >= 2 {
        fleet_legs.push((fleet_n, FleetEvent::None));
        fleet_legs.push((fleet_n, FleetEvent::Kill));
        fleet_legs.push((fleet_n, FleetEvent::Rollout));
    }
    let fleet_paths = FleetPaths {
        dir: dir.clone(),
        master: bundle_path.clone(),
        candidate: candidate_path.clone(),
    };
    for (n, event) in fleet_legs {
        let run = run_fleet_leg(&fleet_paths, n, hi_clients, &spec, &zipf, event);
        eprintln!(
            "{:>26}: {} req ({} errors), {:.0} qps, p50 {:.3} ms, p99 {:.3} ms, blip {:.1} ms, \
             rollout staged {:.0} ms / commit window {:.1} ms",
            run.label,
            run.requests,
            run.errors,
            run.qps,
            run.p50_ms,
            run.p99_ms,
            run.blip_ms,
            run.rollout_staged_ms,
            run.rollout_commit_window_ms,
        );
        fleet_runs.push(run);
    }
    let fleet_run = |event: &str, n: usize| fleet_runs.iter().find(|r| r.event == event && r.fleet == n);
    let fleet_speedup = fleet_run("none", fleet_n).map(|r| r.qps).unwrap_or(f64::NAN)
        / fleet_run("none", 1).map(|r| r.qps).unwrap_or(f64::NAN);
    let fleet = FleetSection {
        replicas: fleet_n,
        // Router + N replicas: with fewer cores than processes the legs
        // compare time-slices of one core, not parallel replicas.
        core_bound: bench::nproc() < fleet_n + 1,
        fleet_speedup,
        failover_blip_ms: fleet_run("kill", fleet_n).map(|r| r.blip_ms).unwrap_or(0.0),
        failover_errors: fleet_run("kill", fleet_n).map(|r| r.errors).unwrap_or(0),
        rollout_commit_window_ms: fleet_run("rollout", fleet_n)
            .map(|r| r.rollout_commit_window_ms)
            .unwrap_or(0.0),
        rollout_errors: fleet_run("rollout", fleet_n).map(|r| r.errors).unwrap_or(0),
        runs: fleet_runs,
    };
    eprintln!(
        "fleet headline: {}-replica over 1-replica qps = {:.2}x{}, failover blip {:.1} ms \
         ({} errors), rollout commit window {:.1} ms ({} errors)",
        fleet.replicas,
        fleet.fleet_speedup,
        if fleet.core_bound {
            " (core-bound: replicas time-slice one core)"
        } else {
            ""
        },
        fleet.failover_blip_ms,
        fleet.failover_errors,
        fleet.rollout_commit_window_ms,
        fleet.rollout_errors,
    );

    let out = ServeLoadReport {
        n_users,
        n_items,
        dim,
        k,
        clients,
        zipf_s,
        duration_secs: secs,
        cached_over_uncached,
        batch_speedup,
        runs,
        fleet,
    };
    cli.write_report("serve", &out);
    std::fs::remove_dir_all(&dir).ok();
}
