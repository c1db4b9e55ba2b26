//! The serving workload `fleet_hot`: a `clapf_fleet` router in front of
//! two in-process event-loop replicas (`clapf_serve::start`), driven with
//! Zipf(1.1) users from a population the replicas' caches hold.

use crate::check::{check_layer_sum, check_recommend_body, field, number, Row};
use crate::load::{get_once, Conn, Popularity};
use crate::stats::{median, percentile, sort, Percentile};
use crate::train::{build_world, replay_score_topk, world_hash, SetupTimes, World};
use crate::{Args, Outcome, LAYER_SUM_TOLERANCE};
use clapf_core::{Clapf, ClapfConfig};
use clapf_data::loader::IdMap;
use clapf_data::split::SplitStrategy;
use clapf_data::synthetic::{self, DatasetSpec};
use clapf_data::{Interactions, InteractionsBuilder, UserId};
use clapf_fleet::{start_router, Ring, RouterConfig, RouterHandle};
use clapf_metrics::{evaluate, top_k_for_user, EvalConfig};
use clapf_mf::{Init, MfModel};
use clapf_sampling::UniformSampler;
use clapf_serve::{start, ModelBundle, ServeConfig, ServerHandle, Transport};
use clapf_telemetry::{NoopObserver, Registry};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Keep-alive client connections, one load thread each (= cores here).
const CONNS: u64 = 2;
/// Recommendation list length requested.
const K: usize = 10;
/// Traces a server keeps (`/debug/traces` ring capacity).
const TRACE_RING: usize = 256;
/// Traced requests aimed for per round of a traced window: fewer than a
/// ring holds, so every one traced over the round is still there at its end.
const TAG_TARGET: u64 = 200;
/// A sampling rate that in effect traces only requests carrying an id.
const ADOPT_ONLY: u64 = 1 << 62;
/// Users requested once through the router and once directly to measure
/// the router hop.
const HOP_PAIRS: usize = 256;
/// Users whose held-out MAP is evaluated.
const MAP_USERS: u32 = 4_096;
/// Users replayed through the scoring and top-k kernels.
const REPLAY_USERS: usize = 2_048;

pub struct Spec {
    pub world: DatasetSpec,
    pub dim: usize,
    /// Epochs of uniform-sampler training behind the served bundle.
    pub epochs: usize,
}

impl Spec {
    /// The ml100k-like world (943 users): both replicas' caches hold every
    /// user's list.
    pub fn fleet_hot() -> Spec {
        Spec {
            world: synthetic::ml100k_like(),
            dim: 20,
            epochs: 20,
        }
    }

    fn users(&self) -> u32 {
        self.world.config.n_users
    }
}

fn recommend_path(user: u32) -> String {
    format!("/recommend/u{user}?k={K}")
}

/// Raw ids `u{n}` / `i{n}` whose dense ids equal the world's ids.
fn id_map(n_users: u32, n_items: u32) -> IdMap {
    let side = |prefix: &str, n: u32| {
        let names: Vec<String> = (0..n).map(|i| format!("\"{prefix}{i}\"")).collect();
        let map: Vec<String> = (0..n).map(|i| format!("\"{prefix}{i}\":{i}")).collect();
        (
            format!("{{{}}}", map.join(",")),
            format!("[{}]", names.join(",")),
        )
    };
    let (u_map, u_list) = side("u", n_users);
    let (i_map, i_list) = side("i", n_items);
    let json = format!(
        "{{\"user_to_dense\":{u_map},\"item_to_dense\":{i_map},\"dense_to_user\":{u_list},\"dense_to_item\":{i_list}}}"
    );
    serde_json::from_str(&json).expect("id map JSON is well formed")
}

/// The served bundle as the checks see it: loaded back from disk once, so
/// expected lists come from exactly the factors the server loads.
struct Served {
    path: PathBuf,
    model: MfModel,
    train: Interactions,
    /// Every user's offline `top_k_for_user` list, as raw item ids.
    lists: Vec<Vec<String>>,
    map: f64,
    floor: f64,
}

/// Trains the bundle (uniform sampler, serial), saves it and evaluates its
/// held-out MAP on the first `MAP_USERS` users with test items.
fn prepare(spec: &Spec, world: &World, seed: u64, dir: &Path) -> Served {
    let trainer = Clapf::new(ClapfConfig {
        dim: spec.dim,
        iterations: spec.epochs * world.train.n_pairs(),
        ..ClapfConfig::map(0.3)
    });
    let mut rng = SmallRng::seed_from_u64(seed);
    let (model, report) = trainer.fit_observed(
        &world.train,
        &mut UniformSampler,
        &mut rng,
        &mut NoopObserver,
    );
    assert!(!report.diverged, "bundle training diverged");
    let ids = id_map(world.train.n_users(), world.train.n_items());
    let path = dir.join("bundle.json");
    ModelBundle::new(
        format!("perfbench d={}", spec.dim),
        model.mf,
        ids,
        &world.train,
    )
    .save(&path)
    .expect("save bundle");
    let bundle = ModelBundle::load(&path).expect("reload bundle");
    let train = bundle.train_interactions();

    let mut b = InteractionsBuilder::new(world.test.n_users(), world.test.n_items());
    for u in world
        .test
        .users()
        .filter(|&u| !world.test.items_of(u).is_empty())
        .take(MAP_USERS as usize)
    {
        for &i in world.test.items_of(u) {
            b.push(u, i).expect("test ids are in range");
        }
    }
    let test = b.build().expect("the world has test pairs");
    let cfg = EvalConfig::at_5();
    let map = evaluate(&bundle.model, &train, &test, &cfg).map;
    let untrained = MfModel::new(
        train.n_users(),
        train.n_items(),
        spec.dim,
        Init::default(),
        &mut rng,
    );
    let floor = evaluate(&untrained, &train, &test, &cfg).map;
    let lists = (0..train.n_users())
        .map(|u| {
            top_k_for_user(&bundle.model, &train, UserId(u), K)
                .items
                .iter()
                .map(|i| format!("i{}", i.0))
                .collect()
        })
        .collect();
    Served {
        path,
        model: bundle.model,
        train,
        lists,
        map,
        floor,
    }
}

/// Servers of one set-up.
struct Deployment {
    router: RouterHandle,
    replicas: Vec<ServerHandle>,
}

impl Deployment {
    fn replica_addrs(&self) -> Vec<SocketAddr> {
        self.replicas.iter().map(ServerHandle::addr).collect()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for r in self.replicas {
            r.shutdown();
        }
    }
}

/// The CLI's serve defaults (event loop, batches of 32 held 100 µs, a
/// 4 096-entry cache) with one scorer thread: with the loop thread and the
/// two load threads that already covers the two cores.
fn replica_config(trace_sample: u64) -> ServeConfig {
    ServeConfig {
        transport: Transport::EventLoop,
        workers: 1,
        trace_sample,
        ..ServeConfig::default()
    }
}

/// Polls `/healthz` until `ready` accepts its body — the readiness signal
/// set-up ends on.
fn wait_ready(addr: SocketAddr, ready: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(r) = get_once(addr, "/healthz") {
            if r.status == 200 && ready(&String::from_utf8_lossy(&r.body)) {
                return;
            }
        }
        assert!(Instant::now() < deadline, "{addr} never became ready");
        std::thread::yield_now();
    }
}

/// The replica a user's key hashes to on the router's ring.
fn owner(ring: &Ring, user: u32) -> usize {
    ring.slot_for(&format!("u{user}")) as usize
}

/// Starts the servers, waits for readiness and warms them. The warm-up
/// also records each user's expected body: the owning replica's direct
/// answer once its cache holds the list.
fn deploy(
    spec: &Spec,
    served: &Served,
    trace: (u64, u64),
    load_secs: &mut Vec<f64>,
    expected: &mut Vec<Vec<u8>>,
    out: &mut Outcome,
) -> Deployment {
    let (router_sample, replica_sample) = trace;
    let mut replicas = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        let r = start(
            served.path.clone(),
            replica_config(replica_sample),
            Arc::new(Registry::new()),
        )
        .expect("replica starts");
        load_secs.push(t.elapsed().as_secs_f64());
        replicas.push(r);
    }
    let addrs: Vec<SocketAddr> = replicas.iter().map(ServerHandle::addr).collect();
    for &a in &addrs {
        wait_ready(a, |_| true);
    }
    let router = start_router(
        RouterConfig {
            replicas: addrs.clone(),
            // One worker per load connection.
            workers: CONNS as usize,
            trace_sample: router_sample,
            ..RouterConfig::default()
        },
        Arc::new(Registry::new()),
    )
    .expect("router starts");
    wait_ready(router.addr(), |b| b.contains("\"alive\":2"));
    // Fill both replicas' caches with every user (so a hedged or
    // load-diverted read finds the same cached list), then take the
    // owner's direct cached body as the expected bytes.
    let ring = Ring::new(addrs.len());
    let mut direct: Vec<Conn> = addrs
        .iter()
        .map(|&a| Conn::open(a).expect("connect"))
        .collect();
    let mut routed = Conn::open(router.addr()).expect("connect");
    expected.clear();
    for u in 0..spec.users() {
        let path = recommend_path(u);
        for c in direct.iter_mut() {
            let r = c.get(&path, None).expect("warm-up request");
            out.check(r.status == 200, || {
                format!("warm-up request for u{u} answered {}", r.status)
            });
        }
        let via_router = routed.get(&path, None).expect("warm-up request");
        let mine = direct[owner(&ring, u)]
            .get(&path, None)
            .expect("warm-up request");
        out.check(via_router.body == mine.body, || {
            format!("router body for u{u} differs from the owning replica's")
        });
        expected.push(mine.body);
    }
    Deployment { router, replicas }
}

/// Checks every expected body against the offline `top_k_for_user` list
/// over the bundle's training interactions.
fn check_expected(served: &Served, expected: &[Vec<u8>], out: &mut Outcome) {
    out.check(expected.len() == served.lists.len(), || {
        format!(
            "{} expected bodies for {} users",
            expected.len(),
            served.lists.len()
        )
    });
    for (u, (body, list)) in expected.iter().zip(&served.lists).enumerate() {
        let r = check_recommend_body(body, &format!("u{u}"), K, list);
        out.check(r.is_ok(), || format!("body for u{u}: {}", r.unwrap_err()));
    }
}

/// What the load threads of one window saw.
#[derive(Default)]
struct Window {
    wall: f64,
    attempted: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    /// `(trace id, round trip µs)` of tagged requests.
    tagged: Vec<(u64, f64)>,
    first_users: Vec<u32>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall
    }

    /// Latency percentiles over the window's responses, ms.
    fn latency_ms(&self) -> Vec<Percentile> {
        let mut ms: Vec<f64> = self.latencies_us.iter().map(|us| us / 1e3).collect();
        sort(&mut ms);
        [0.50, 0.90, 0.99]
            .iter()
            .map(|&p| percentile(&ms, p).expect("the window completed requests"))
            .collect()
    }

    fn mean_rtt_us(&self) -> f64 {
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len().max(1) as f64
    }
}

/// Closed-loop load: `CONNS` threads, each on its own keep-alive
/// connection to the router, send their next request when the previous
/// answer lands. With `tagged = Some((every, replicas))`, one request in
/// `every` carries a client-chosen `X-Clapf-Trace` id and goes directly to
/// the owning replica instead (the router ignores client ids, so this is
/// how a window pairs client round trips with replica traces); those are
/// kept as `(id, round trip)` and not counted in the router's latencies.
/// Every body must equal the user's `expected` bytes.
fn drive(
    router: SocketAddr,
    pop: &Popularity,
    seed: u64,
    secs: f64,
    tagged: Option<(u64, &[SocketAddr])>,
    expected: &[Vec<u8>],
) -> Window {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let (every, replicas) = tagged.unwrap_or((u64::MAX, &[]));
    let parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut w = Window::default();
                    let mut conn = Conn::open(router).expect("connect");
                    let mut direct: Vec<Conn> = replicas
                        .iter()
                        .map(|&a| Conn::open(a).expect("connect"))
                        .collect();
                    let ring = Ring::new(replicas.len().max(1));
                    for (n, u) in pop.stream(seed, c).enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let n = n as u64;
                        let id = (!direct.is_empty() && n.is_multiple_of(every))
                            .then(|| ((c + 1) << 48) | (n + 1));
                        w.attempted += 1;
                        if w.first_users.len() < REPLAY_USERS {
                            w.first_users.push(u);
                        }
                        let path = recommend_path(u);
                        let direct_to = id.map(|_| owner(&ring, u));
                        let reply = match direct_to {
                            Some(o) => direct[o].get(&path, id),
                            None => conn.get(&path, id),
                        };
                        let reply = match reply {
                            Ok(r) if r.status == 200 => r,
                            _ => {
                                w.failed += 1;
                                // Reopen the connection that failed.
                                match direct_to {
                                    Some(o) => {
                                        direct[o] = Conn::open(replicas[o]).expect("reconnect");
                                    }
                                    None => conn = Conn::open(router).expect("reconnect"),
                                }
                                continue;
                            }
                        };
                        let us = reply.rtt.as_secs_f64() * 1e6;
                        if direct_to.is_none() {
                            w.latencies_us.push(us);
                        }
                        if let Some(id) = id {
                            w.tagged.push((id, us));
                        }
                        if reply.body != expected[u as usize] {
                            w.failed += 1;
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let mut all = Window {
        wall: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for p in parts {
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.latencies_us.extend(p.latencies_us);
        all.tagged.extend(p.tagged);
        all.first_users.extend(p.first_users);
    }
    all.first_users.truncate(REPLAY_USERS);
    all
}

/// Counters and histogram sums from a `/metrics` exposition.
fn scrape(addr: SocketAddr) -> HashMap<String, f64> {
    let body = get_once(addr, "/metrics").expect("GET /metrics").body;
    String::from_utf8_lossy(&body)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?;
            let value = parts.next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

fn get(m: &HashMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

/// One trace from `/debug/traces`: total and per-stage microseconds.
struct TraceRec {
    total_us: f64,
    stages: Vec<(String, f64)>,
}

impl TraceRec {
    fn stage(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(s, _)| s == name)
            .map(|(_, d)| d)
            .sum()
    }
}

fn traces(addr: SocketAddr) -> HashMap<u64, TraceRec> {
    let body = get_once(addr, &format!("/debug/traces?n={TRACE_RING}"))
        .expect("GET /debug/traces")
        .body;
    let v: Value = serde_json::from_str(&String::from_utf8_lossy(&body)).expect("trace JSON");
    let mut out = HashMap::new();
    if let Some(Value::Seq(list)) = field(&v, "traces") {
        for t in list {
            let (Some(Value::Str(id)), Some(total), Some(Value::Seq(spans))) = (
                field(t, "id"),
                field(t, "total_us").and_then(number),
                field(t, "spans"),
            ) else {
                continue;
            };
            let stages = spans
                .iter()
                .filter_map(
                    |s| match (field(s, "stage"), field(s, "dur_us").and_then(number)) {
                        (Some(Value::Str(name)), Some(d)) => Some((name.clone(), d)),
                        _ => None,
                    },
                )
                .collect();
            if let Ok(id) = u64::from_str_radix(id, 16) {
                out.insert(
                    id,
                    TraceRec {
                        total_us: total,
                        stages,
                    },
                );
            }
        }
    }
    out
}

/// Replica-side trace stages, grouped into the serve layer's metrics.
const SERVE_STAGES: &[(&str, &[&str])] = &[
    ("clapf-serve.parse_us", &["req.parse"]),
    ("clapf-serve.cache_us", &["cache.lookup", "cache.hit"]),
    ("clapf-serve.queue_us", &["batch.queue"]),
    (
        "clapf-serve.score_us",
        &["batch.score", "score.compute", "score.wait"],
    ),
    ("clapf-serve.wake_us", &["batch.wake"]),
    ("clapf-serve.render_us", &["req.render"]),
    ("clapf-serve.write_us", &["req.write"]),
];

/// Per-request means of the serve stages over `recs`.
fn stage_means(recs: &[TraceRec]) -> Vec<(&'static str, f64)> {
    let n = recs.len().max(1) as f64;
    SERVE_STAGES
        .iter()
        .map(|(metric, stages)| {
            let sum: f64 = recs
                .iter()
                .map(|r| stages.iter().map(|s| r.stage(s)).sum::<f64>())
                .sum();
            (*metric, sum / n)
        })
        .collect()
}

pub fn run(spec: &Spec, args: &Args, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let pop = Popularity::zipf(spec.users(), 1.1, args.seed);
    out.note(format!(
        "world: {} users x {} items (80/20 per-user split); bundle d={} trained {} uniform epochs; Zipf(1.1) over {} users; {} closed-loop connections, k={K}",
        spec.users(),
        spec.world.config.n_items,
        spec.dim,
        spec.epochs,
        pop.population(),
        CONNS
    ));
    let world = build_world_per_user(&spec.world, args.seed, &mut SetupTimes::default());
    let served = prepare(spec, &world, args.seed, dir);
    out.check(served.map >= 2.0 * served.floor, || {
        format!(
            "served model's held-out MAP {:.4} is below twice the untrained model's {:.4}",
            served.map, served.floor
        )
    });
    let reference = world_hash(&world);
    drop(world);

    // Set-up, repeated: generate + split the world, start the servers,
    // wait for readiness, warm them.
    let mut times = SetupTimes::default();
    let mut load_secs = Vec::new();
    let mut expected = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUPS {
        if let Some(d) = deployment.take() {
            Deployment::shutdown(d);
        }
        let t = Instant::now();
        let world = build_world_per_user(&spec.world, args.seed, &mut times);
        let same_world = world_hash(&world) == reference;
        deployment = Some(deploy(
            spec,
            &served,
            (0, 0),
            &mut load_secs,
            &mut expected,
            &mut out,
        ));
        times.total.push(t.elapsed().as_secs_f64());
        out.check(same_world, || {
            "the same seed generated different worlds".into()
        });
        check_expected(&served, &expected, &mut out);
    }
    out.set("setup_s", median(&times.total));
    let deployment = deployment.expect("at least one set-up");

    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut window = drive(
        deployment.router.addr(),
        &pop,
        args.seed,
        secs,
        None,
        &expected,
    );
    deployment.shutdown();
    if args.trace {
        let traced = traced_rounds(
            spec,
            &served,
            &pop,
            args.seed,
            secs,
            window.attempted,
            &mut expected,
            &mut out,
        );
        out.set("clapf-data.generate_s", median(&times.generate));
        out.set("clapf-data.split_s", median(&times.split));
        out.set("clapf-serve.bundle_load_s", median(&load_secs));
        out.set(
            "clapf-telemetry.trace_overhead_ratio",
            traced.ops_per_s() / window.ops_per_s(),
        );
        let (score_us, topk_us) = replay_score_topk(
            &served.model,
            &served.train,
            &traced
                .first_users
                .iter()
                .map(|&u| UserId(u))
                .collect::<Vec<_>>(),
        );
        out.set("clapf-mf.score_us_per_user", score_us);
        out.set("clapf-metrics.topk_us_per_user", topk_us);
        window.attempted += traced.attempted;
        window.failed += traced.failed;
    }

    out.count(window.attempted, window.failed, || {
        format!(
            "{} of {} requests failed or answered wrongly",
            window.failed, window.attempted
        )
    });
    let pct = window.latency_ms();
    out.set("ops_per_s", window.ops_per_s());
    out.set("p50_ms", pct[0].value);
    out.set("p90_ms", pct[1].value);
    out.note(format!(
        "latency over {} responses: p50 {:.4} ms, p90 {:.4} ms ({} beyond), p99 {:.4} ms ({} beyond)",
        pct[0].samples, pct[0].value, pct[1].value, pct[1].beyond, pct[2].value, pct[2].beyond
    ));
    out.set("holdout_map", served.map);
    out
}

/// The serving worlds split per user, so every user keeps a training item
/// and every request has an answer.
fn build_world_per_user(source: &DatasetSpec, seed: u64, times: &mut SetupTimes) -> World {
    build_world(source, seed, SplitStrategy::PerUser, times)
}

/// The router hop, paired from outside: the same user through the router
/// and directly to its owning replica (both cached), alternating which
/// goes first. Returns the per-pair hops, µs.
fn hop_pairs(
    router: SocketAddr,
    replicas: &[SocketAddr],
    pop: &Popularity,
    seed: u64,
    out: &mut Outcome,
) -> Vec<f64> {
    let ring = Ring::new(replicas.len());
    let mut routed = Conn::open(router).expect("connect");
    let mut direct: Vec<Conn> = replicas
        .iter()
        .map(|&a| Conn::open(a).expect("connect"))
        .collect();
    let mut hops = Vec::new();
    for (n, u) in pop.stream(seed ^ 2, 0).take(HOP_PAIRS).enumerate() {
        let path = recommend_path(u);
        let o = owner(&ring, u);
        let (r, d) = if n % 2 == 0 {
            let r = routed.get(&path, None);
            (r, direct[o].get(&path, None))
        } else {
            let d = direct[o].get(&path, None);
            (routed.get(&path, None), d)
        };
        let (Ok(r), Ok(d)) = (r, d) else {
            out.check(false, || format!("hop pairing request for u{u} failed"));
            continue;
        };
        out.check(r.status == 200 && r.body == d.body, || {
            format!("hop pairing: router and owner answered u{u} differently")
        });
        hops.push((r.rtt.as_secs_f64() - d.rtt.as_secs_f64()) * 1e6);
    }
    hops
}

/// Traces gathered over the rounds of a traced window.
#[derive(Default)]
struct Breakdown {
    /// Replica traces of routed requests, paired with `router`.
    served: Vec<TraceRec>,
    /// Router traces, index-aligned with `served`.
    router: Vec<TraceRec>,
    /// Round trip minus replica trace time of tagged direct requests, µs.
    residuals: Vec<f64>,
}

impl Breakdown {
    /// Pairs one round's client records with the traces the servers hold
    /// at its end. Ids are unique within a round.
    fn collect(&mut self, dep: &Deployment, w: &Window) {
        let mut replica: HashMap<u64, TraceRec> =
            dep.replica_addrs().into_iter().flat_map(traces).collect();
        for (id, rt) in traces(dep.router.addr()) {
            if let Some(rep) = replica.remove(&id) {
                self.router.push(rt);
                self.served.push(rep);
            }
        }
        for (id, rtt) in &w.tagged {
            if let Some(t) = replica.remove(id) {
                self.residuals.push(rtt - t.total_us);
            }
        }
    }
}

/// Rounds of a traced window per run: each ends with fetching the trace
/// rings, so the breakdown rests on several rings' worth of traces.
const TRACE_ROUNDS: u64 = 4;

/// The traced half of a `--trace 1` run: a fresh deployment with tracing
/// on, driven for `secs` in `TRACE_ROUNDS` rounds, then the per-layer
/// metrics and the layer-sum check. `untraced_requests` (the untraced
/// half's count) sizes the sampling so a round's traces fit the rings.
#[allow(clippy::too_many_arguments)]
fn traced_rounds(
    spec: &Spec,
    served: &Served,
    pop: &Popularity,
    seed: u64,
    secs: f64,
    untraced_requests: u64,
    expected: &mut Vec<Vec<u8>>,
    out: &mut Outcome,
) -> Window {
    // About TAG_TARGET traced requests per round, spread over the round:
    // head-sampled by the router (which ignores client ids) plus tagged
    // direct ones to the replicas.
    let every = (untraced_requests / TRACE_ROUNDS / TAG_TARGET).max(1);
    let dep = deploy(
        spec,
        served,
        (every, ADOPT_ONLY),
        &mut Vec::new(),
        expected,
        out,
    );
    check_expected(served, expected, out);
    let router = dep.router.addr();
    let replicas = dep.replica_addrs();
    let before: Vec<HashMap<String, f64>> = replicas.iter().map(|&a| scrape(a)).collect();
    let mut all = Window::default();
    let mut b = Breakdown::default();
    for round in 0..TRACE_ROUNDS {
        let w = drive(
            router,
            pop,
            seed ^ (round + 1),
            secs / TRACE_ROUNDS as f64,
            Some((every, &replicas)),
            expected,
        );
        b.collect(&dep, &w);
        all.wall += w.wall;
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.latencies_us.extend(w.latencies_us);
        if all.first_users.is_empty() {
            all.first_users = w.first_users;
        }
    }
    let after: Vec<HashMap<String, f64>> = replicas.iter().map(|&a| scrape(a)).collect();
    counter_metrics(&before, &after, out);
    let hops = hop_pairs(router, &replicas, pop, seed, out);
    out.set("clapf-fleet.hop_us", median(&hops));
    let (rows, residual) = fleet_layers(&b, &scrape(router), &before, &after, out);
    out.set("clapf-serve.net_residual_us", residual.secs * 1e6);
    out.check(b.served.len() >= 32 && b.residuals.len() >= 32, || {
        format!(
            "too few paired traces for the layer breakdown: {} served, {} residual",
            b.served.len(),
            b.residuals.len()
        )
    });
    let total = all.mean_rtt_us() * 1e-6;
    out.layer_sum(check_layer_sum(
        &rows,
        &residual,
        total,
        LAYER_SUM_TOLERANCE,
    ));
    dep.shutdown();
    all
}

/// Replica counters over the traced window, from `/metrics`.
fn counter_metrics(
    before: &[HashMap<String, f64>],
    after: &[HashMap<String, f64>],
    out: &mut Outcome,
) {
    let delta = |name: &str| -> f64 {
        after
            .iter()
            .zip(before)
            .map(|(a, b)| get(a, name) - get(b, name))
            .sum()
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses, coalesced) = (
        delta("serve_cache_hits"),
        delta("serve_cache_misses"),
        delta("serve_cache_coalesced"),
    );
    out.set(
        "clapf-serve.cache_hit_ratio",
        ratio(hits, hits + misses + coalesced),
    );
    out.set("clapf-serve.coalesced", coalesced);
    out.set("clapf-serve.shed", delta("serve_shed"));
    out.set(
        "clapf-serve.batch_mean_size",
        ratio(
            delta("serve_batch_size_sum"),
            delta("serve_batch_size_count"),
        ),
    );
    out.set(
        "clapf-serve.batch_hold_us",
        ratio(
            delta("serve_batch_hold_us_sum"),
            delta("serve_batch_hold_us_count"),
        ),
    );
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// The layer rows: the router's own time and the replica's, over routed
/// requests traced on both, and the client-side residual of tagged direct
/// requests from the same window.
fn fleet_layers(
    b: &Breakdown,
    router_metrics: &HashMap<String, f64>,
    before: &[HashMap<String, f64>],
    after: &[HashMap<String, f64>],
    out: &mut Outcome,
) -> (Vec<Row>, Row) {
    let fired = get(router_metrics, "fleet_hedge_fired");
    out.set("clapf-fleet.hedge_fired", fired);
    out.set(
        "clapf-fleet.hedge_win_ratio",
        if fired > 0.0 {
            get(router_metrics, "fleet_hedge_wins") / fired
        } else {
            0.0
        },
    );
    out.set("clapf-fleet.retries", get(router_metrics, "fleet_retries"));
    out.set("clapf-fleet.shed", get(router_metrics, "fleet_shed"));
    let per_replica: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| get(a, "serve_recommend_requests") - get(b, "serve_recommend_requests"))
        .collect();
    out.set(
        "clapf-fleet.max_replica_share",
        per_replica.iter().copied().fold(0.0, f64::max) / per_replica.iter().sum::<f64>().max(1.0),
    );
    out.set(
        "clapf-fleet.pick_us",
        mean(b.router.iter().map(|t| t.stage("fleet.pick"))),
    );
    out.set(
        "clapf-fleet.upstream_us",
        mean(b.router.iter().map(|t| t.stage("fleet.upstream"))),
    );
    for (metric, v) in stage_means(&b.served) {
        out.set(metric, v);
    }
    out.note(format!(
        "{} routed requests traced on router and replica; {} tagged direct requests paired",
        b.router.len(),
        b.residuals.len()
    ));
    let router_self = mean(
        b.router
            .iter()
            .zip(&b.served)
            .map(|(r, s)| r.total_us - s.total_us),
    );
    let rows = vec![
        Row::new("clapf-fleet (router self)", router_self * 1e-6),
        Row::new(
            "clapf-serve (replica)",
            mean(b.served.iter().map(|t| t.total_us)) * 1e-6,
        ),
    ];
    let residual = Row::new(
        "net residual (direct rtt - replica trace)",
        mean(b.residuals.iter().copied()) * 1e-6,
    );
    (rows, residual)
}
