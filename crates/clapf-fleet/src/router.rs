//! The router process: consistent-hash proxying over lease-based
//! membership, with circuit breakers, retry budgets, hedged reads, and a
//! degraded-mode fallback when a user's slot has no live replica.
//!
//! Request path: parse (same read-budget discipline as `clapf-serve`),
//! enter the pause gate, hash the user through the [`Ring`]
//! (bounded-load) over the current membership snapshot, claim the picked
//! slot's circuit breaker, and relay over the worker's pooled keep-alive
//! [`Upstream`]. Failures mark the slot dead, feed its breaker, and
//! retry through the ring while the token-bucket retry budget lasts.
//! On the first attempt the call is *hedged*: if the primary is slower
//! than the fleet's recent p99, a second copy goes to the next ring
//! candidate and the first answer wins (`hedge.rs`). Replica bodies are
//! relayed byte-for-byte, so a routed answer is bit-identical to asking
//! the replica directly.
//!
//! Membership is dynamic (`membership.rs`): replicas register and renew
//! leases over `POST /fleet/register`; the health thread sweeps expired
//! leases (eviction) and probes `/healthz` on a jittered interval. A
//! request whose ring walk finds no routable slot is answered from the
//! stale-tolerant fallback cache (stamped `X-Clapf-Degraded: stale`) or,
//! failing that, with a typed 503 + `Retry-After` — never a hang.

use crate::breaker::{next_salt, Admission, BreakerConfig, RetryBudget};
use crate::client::Upstream;
use crate::hedge::{hedge_delay, HedgeDone, HedgeJob, HedgePolicy, HedgeRunner, LatencyWindow};
use crate::membership::{LeaseView, Membership, SlotState};
use clapf_serve::{call, parse_request_deadline_timed, Method, ParseError, Reply, Request, Response};
use clapf_telemetry::{intern_stage, FinishedTrace, JsonValue, Registry, Stage, Trace, Tracer};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How often a blocked connection read wakes to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(250);
/// Idle keep-alive connections are closed after this long without a request.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(30);

/// How a router is sized and wired.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Seed replica addresses, in slot order. Seed slots have no lease —
    /// health probes alone govern their liveness (the pre-registration
    /// static fleet). May be empty: a dynamic fleet starts with zero
    /// slots and grows as replicas register.
    pub replicas: Vec<SocketAddr>,
    /// Worker threads (each owns one pooled upstream connection per slot).
    pub workers: usize,
    /// Health-check probe interval (jittered ±20% per sweep).
    pub health_interval: Duration,
    /// Per-call timeout on upstream connects/reads/writes.
    pub upstream_timeout: Duration,
    /// Read budget for one client request (slow-loris cap).
    pub read_cap: Duration,
    /// Client socket write timeout.
    pub write_timeout: Duration,
    /// Longest a request parks at a paused gate before being shed with a
    /// 503 + `Retry-After` — the overload-shedding safety valve that keeps
    /// a stuck rollout from wedging clients forever.
    pub pause_max_wait: Duration,
    /// A pause older than this auto-resumes (crashed rollout driver).
    pub pause_guard: Duration,
    /// Trace one in this many proxied requests (0 disables tracing).
    pub trace_sample: u64,
    /// Lease TTL granted to registered members; a member that misses its
    /// heartbeats this long is evicted from the ring.
    pub lease_ttl: Duration,
    /// Circuit-breaker thresholds shared by every slot.
    pub breaker: BreakerConfig,
    /// Retry-budget tokens earned per proxied request (a retry spends 1).
    pub retry_budget_ratio: f64,
    /// Retry-budget bucket capacity, in whole tokens.
    pub retry_budget_cap: u64,
    /// When and how aggressively reads are hedged.
    pub hedge: HedgePolicy,
    /// Entries in the degraded-mode fallback cache (0 disables it).
    pub fallback_cache: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            replicas: Vec::new(),
            workers: 4,
            health_interval: Duration::from_millis(500),
            upstream_timeout: Duration::from_secs(5),
            read_cap: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            pause_max_wait: Duration::from_secs(2),
            pause_guard: Duration::from_secs(10),
            trace_sample: 0,
            lease_ttl: Duration::from_secs(3),
            breaker: BreakerConfig::default(),
            retry_budget_ratio: 0.2,
            retry_budget_cap: 10,
            hedge: HedgePolicy::default(),
            fallback_cache: 512,
        }
    }
}

/// Why the router failed to start.
#[derive(Debug)]
pub enum RouterError {
    /// Binding or socket configuration failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "socket: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Router-side stage vocabulary for propagated traces.
struct Stages {
    parse: Stage,
    pick: Stage,
    upstream: Stage,
    retry: Stage,
    hedge: Stage,
    write: Stage,
}

fn stages() -> &'static Stages {
    static STAGES: OnceLock<Stages> = OnceLock::new();
    STAGES.get_or_init(|| Stages {
        parse: intern_stage("req.parse"),
        pick: intern_stage("fleet.pick"),
        upstream: intern_stage("fleet.upstream"),
        retry: intern_stage("fleet.retry"),
        hedge: intern_stage("fleet.hedge"),
        write: intern_stage("req.write"),
    })
}

/// The pause gate: parks proxied requests during the rollout commit
/// window so no client can observe two model generations.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    paused: bool,
    inflight: usize,
    /// Bumped on every pause; the auto-resume guard only fires on its own
    /// epoch, so a fresh pause is never cancelled by a stale guard.
    epoch: u64,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new(GateState {
                paused: false,
                inflight: 0,
                epoch: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Enters the gate, parking while paused up to `max_wait`. Returns
    /// `false` if the pause outlasted the wait (caller sheds a 503).
    fn enter(&self, max_wait: Duration) -> bool {
        let deadline = Instant::now() + max_wait;
        let mut st = self.state.lock().expect("gate poisoned");
        while st.paused {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .expect("gate poisoned");
            st = next;
        }
        st.inflight += 1;
        true
    }

    fn leave(&self) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.inflight -= 1;
        self.cv.notify_all();
    }

    /// Pauses new entries and waits up to `drain` for in-flight proxied
    /// requests to finish. Returns `(epoch, drained)`.
    fn pause(&self, drain: Duration) -> (u64, bool) {
        let deadline = Instant::now() + drain;
        let mut st = self.state.lock().expect("gate poisoned");
        st.paused = true;
        st.epoch += 1;
        let epoch = st.epoch;
        while st.inflight > 0 {
            let now = Instant::now();
            if now >= deadline {
                return (epoch, false);
            }
            let (next, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .expect("gate poisoned");
            st = next;
        }
        (epoch, true)
    }

    /// Resumes if `epoch` matches the current pause (or unconditionally
    /// when `epoch` is `None`). Returns whether a pause was lifted.
    fn resume(&self, epoch: Option<u64>) -> bool {
        let mut st = self.state.lock().expect("gate poisoned");
        if !st.paused || epoch.is_some_and(|e| e != st.epoch) {
            return false;
        }
        st.paused = false;
        self.cv.notify_all();
        true
    }

    fn is_paused(&self) -> bool {
        self.state.lock().expect("gate poisoned").paused
    }
}

/// The degraded-mode fallback: a small sharded map of the most recent
/// successful `/recommend` bodies, keyed by full request target. Stale by
/// construction — every hit is stamped `X-Clapf-Degraded: stale` and
/// counted, never silently passed off as fresh.
struct FallbackCache {
    shards: Vec<Mutex<HashMap<String, String>>>,
    cap_per_shard: usize,
}

impl FallbackCache {
    const SHARDS: usize = 8;

    fn new(capacity: usize) -> FallbackCache {
        FallbackCache {
            shards: (0..Self::SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            cap_per_shard: capacity / Self::SHARDS,
        }
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, String>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % Self::SHARDS as u64) as usize]
    }

    fn insert(&self, key: &str, body: &str) {
        if self.cap_per_shard == 0 {
            return;
        }
        let mut shard = self.shard(key).lock().expect("fallback poisoned");
        if !shard.contains_key(key) && shard.len() >= self.cap_per_shard {
            // Drop an arbitrary entry: recency bookkeeping isn't worth it
            // for a best-effort stale cache.
            if let Some(k) = shard.keys().next().cloned() {
                shard.remove(&k);
            }
        }
        shard.insert(key.to_string(), body.to_string());
    }

    fn get(&self, key: &str) -> Option<String> {
        if self.cap_per_shard == 0 {
            return None;
        }
        self.shard(key).lock().expect("fallback poisoned").get(key).cloned()
    }
}

/// State shared by every router thread.
struct RouterShared {
    members: Membership,
    registry: Arc<Registry>,
    gate: Gate,
    tracer: Tracer,
    shutdown: AtomicBool,
    addr: SocketAddr,
    upstream_timeout: Duration,
    read_cap: Duration,
    write_timeout: Duration,
    pause_max_wait: Duration,
    pause_guard: Duration,
    retry_budget: RetryBudget,
    hedge: HedgePolicy,
    hedge_budget: RetryBudget,
    latency: LatencyWindow,
    fallback: FallbackCache,
    started: Instant,
}

impl RouterShared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Unpark anything waiting at the gate, then wake the accept loop.
        self.gate.resume(None);
        let _ = TcpStream::connect(self.addr);
    }

    /// Records an upstream failure against `slot`. The breaker accumulates
    /// it; liveness stays the health prober's call. Deliberately NOT
    /// `set_alive(false)`: one failed request already fails over via the
    /// retry's exclusion set, consecutive failures open the breaker (which
    /// blocks routing on its own), and a slot whose process really died is
    /// marked dead by the next probe — whereas marking it dead here would
    /// let a single blip hide the slot from the very traffic whose
    /// consecutive failures the breaker needs to see before tripping.
    fn fail_slot(&self, state: &SlotState) {
        if state.breaker.on_failure(Instant::now(), next_salt()) {
            self.registry.counter("fleet.breaker.trip").inc();
        }
    }

    /// Records an upstream success against `slot`: breaker + latency.
    fn succeed_slot(&self, state: &SlotState, elapsed: Duration) {
        self.latency.observe(elapsed);
        if state.breaker.on_success() {
            self.registry.counter("fleet.breaker.close").inc();
        }
    }
}

/// A running router. Dropping the handle does **not** stop it; call
/// [`shutdown`](RouterHandle::shutdown) or [`wait`](RouterHandle::wait).
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current replica addresses, in slot order.
    pub fn replica_addrs(&self) -> Vec<SocketAddr> {
        let (_, slots) = self.shared.members.snapshot();
        slots.iter().map(|s| s.addr()).collect()
    }

    /// Repoints `slot` at a restarted replica's new address. The slot
    /// keeps its ring position, so no user remaps; workers drop their
    /// pooled connection to the old address on next use.
    pub fn set_replica_addr(&self, slot: usize, addr: SocketAddr) {
        if let Some(state) = self.shared.members.get(slot) {
            state.set_addr(addr);
        }
    }

    /// Whether the fleet currently considers `slot` alive.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.shared.members.get(slot).is_some_and(|s| s.is_alive())
    }

    /// Number of membership slots (alive or not).
    pub fn member_count(&self) -> usize {
        self.shared.members.len()
    }

    /// Registers (or renews) a member directly, bypassing HTTP — what the
    /// in-process supervisor uses to repoint a restarted replica.
    pub fn register_member(&self, name: &str, addr: SocketAddr) -> usize {
        let reg = self.shared.members.register(name, addr, Instant::now());
        count_registration(&self.shared, &reg);
        reg.slot
    }

    /// Whether a shutdown has been requested (e.g. via `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Initiates a graceful shutdown and drains every thread.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until something else (e.g. `POST /shutdown`) stops the
    /// router, then drains.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn count_registration(shared: &RouterShared, reg: &crate::membership::Registered) {
    if reg.created {
        shared.registry.counter("fleet.member.joined").inc();
    } else if reg.readmitted {
        shared.registry.counter("fleet.member.readmitted").inc();
    }
}

/// Per-worker mutable state: the pooled upstream connections (one per
/// slot, grown as membership grows) and the lazily-spawned hedge helper.
struct Worker {
    pool: Vec<Option<Upstream>>,
    runner: Option<HedgeRunner>,
    index: usize,
    next_seq: u64,
}

impl Worker {
    fn new(index: usize) -> Worker {
        Worker {
            pool: Vec::new(),
            runner: None,
            index,
            next_seq: 0,
        }
    }

    fn pool_slot(&mut self, slot: u32) -> &mut Option<Upstream> {
        let slot = slot as usize;
        if self.pool.len() <= slot {
            self.pool.resize_with(slot + 1, || None);
        }
        &mut self.pool[slot]
    }

    fn runner(&mut self) -> &mut HedgeRunner {
        let index = self.index;
        self.runner.get_or_insert_with(|| HedgeRunner::new(index))
    }
}

/// Starts a router per `config`. Metrics land in `registry` (exposed at
/// `GET /metrics`). Seed replicas are probed once synchronously before
/// accepting traffic, so the first request never races the first health
/// sweep; registered members arrive later via `/fleet/register`.
pub fn start_router(
    config: RouterConfig,
    registry: Arc<Registry>,
) -> Result<RouterHandle, RouterError> {
    let listener = TcpListener::bind(&config.addr).map_err(RouterError::Io)?;
    let addr = listener.local_addr().map_err(RouterError::Io)?;

    let shared = Arc::new(RouterShared {
        members: Membership::new(&config.replicas, config.lease_ttl, config.breaker),
        registry,
        gate: Gate::new(),
        tracer: Tracer::new(config.trace_sample, 256, 8),
        shutdown: AtomicBool::new(false),
        addr,
        upstream_timeout: config.upstream_timeout,
        read_cap: config.read_cap,
        write_timeout: config.write_timeout,
        pause_max_wait: config.pause_max_wait,
        pause_guard: config.pause_guard,
        retry_budget: RetryBudget::new(config.retry_budget_ratio, config.retry_budget_cap),
        hedge: config.hedge,
        hedge_budget: RetryBudget::new(config.hedge.budget_ratio, config.retry_budget_cap.max(4)),
        latency: LatencyWindow::new(512),
        fallback: FallbackCache::new(config.fallback_cache),
        started: Instant::now(),
    });

    // Initial synchronous probe round: seed replicas that answer are
    // admitted before the listener starts handing out connections.
    for slot in 0..shared.members.len() {
        probe(&shared, slot);
    }

    let mut threads = Vec::new();
    // Health thread: sweeps expired leases, then probes every
    // probe-eligible slot; the interval is jittered so a fleet of routers
    // never synchronizes its probes into a thundering herd.
    {
        let shared = Arc::clone(&shared);
        let interval = config.health_interval;
        threads.push(
            std::thread::Builder::new()
                .name("clapf-fleet-health".into())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(crate::breaker::jittered(interval, 0.2, next_salt()));
                        let now = Instant::now();
                        let evicted = shared.members.sweep(now);
                        for _ in &evicted {
                            shared.registry.counter("fleet.lease.expired").inc();
                            shared.registry.counter("fleet.replica.down").inc();
                        }
                        for slot in 0..shared.members.len() {
                            probe(&shared, slot);
                        }
                    }
                })
                .expect("spawn health checker"),
        );
    }

    // Blocking accept + bounded queue + worker pool; each worker owns one
    // pooled upstream per slot.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(64);
    let rx = Arc::new(Mutex::new(rx));
    for n in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("clapf-fleet-worker-{n}"))
                .spawn(move || {
                    let mut worker = Worker::new(n);
                    loop {
                        let conn = rx.lock().expect("worker receiver poisoned").recv();
                        match conn {
                            Ok(stream) => relay_connection(stream, &shared, &mut worker),
                            Err(_) => return,
                        }
                    }
                })
                .expect("spawn worker"),
        );
    }
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("clapf-fleet-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        if let Ok(stream) = conn {
                            match tx.try_send(stream) {
                                Ok(()) => {}
                                Err(mpsc::TrySendError::Full(stream)) => {
                                    shared.registry.counter("fleet.shed").inc();
                                    let mut stream = stream;
                                    let _ = stream
                                        .set_write_timeout(Some(Duration::from_secs(1)));
                                    let _ = Response::error(503, "router overloaded")
                                        .with_header("Retry-After", "1")
                                        .write_to(&mut stream, false);
                                }
                                Err(mpsc::TrySendError::Disconnected(_)) => break,
                            }
                        }
                    }
                })
                .expect("spawn accept thread"),
        );
    }

    Ok(RouterHandle { shared, threads })
}

/// One `/healthz` probe; flips the slot's liveness either way. Lease
/// expiry outranks probing: an expired member must re-register, so it is
/// skipped here and stays evicted however healthy its socket looks.
fn probe(shared: &RouterShared, slot: usize) {
    let Some(state) = shared.members.get(slot) else {
        return;
    };
    if !state.probe_eligible(Instant::now()) {
        return;
    }
    let healthy = call(state.addr(), "GET", "/healthz", shared.upstream_timeout)
        .map(|r| r.status == 200)
        .unwrap_or(false);
    let was = state.set_alive(healthy);
    if healthy {
        // An out-of-band healthy probe closes the breaker too: the slot
        // has proven itself without risking a client request.
        if state.breaker.on_success() {
            shared.registry.counter("fleet.breaker.close").inc();
        }
        if !was {
            shared.registry.counter("fleet.replica.up").inc();
        }
    } else if was {
        shared.registry.counter("fleet.replica.down").inc();
    }
}

/// Keep-alive request loop on one client connection.
fn relay_connection(stream: TcpStream, shared: &Arc<RouterShared>, worker: &mut Worker) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    if stream.set_write_timeout(Some(shared.write_timeout)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut idle = Duration::ZERO;
    loop {
        match parse_request_deadline_timed(&mut reader, Some(shared.read_cap)) {
            Ok((req, first_byte)) => {
                idle = Duration::ZERO;
                let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::Acquire);
                let response = route(&req, shared, worker, first_byte, &mut writer, keep_alive);
                // `route` wrote proxied responses itself; anything left is
                // a locally-generated response to send now.
                if let Some(r) = response {
                    if r.write_to(&mut writer, keep_alive).is_err() {
                        return;
                    }
                }
                if !keep_alive {
                    return;
                }
            }
            Err(ParseError::Idle) => {
                idle += READ_POLL;
                if shared.shutdown.load(Ordering::Acquire) || idle >= KEEP_ALIVE_IDLE {
                    return;
                }
            }
            Err(ParseError::Eof) | Err(ParseError::Io(_)) => return,
            Err(ParseError::Bad { status, reason }) => {
                shared.registry.counter("fleet.http_errors").inc();
                let _ = Response::error(status, reason).write_to(&mut writer, false);
                return;
            }
        }
    }
}

/// Dispatches one request. Proxied responses are written to `writer`
/// directly (so the relay stays byte-exact); local endpoints return the
/// response for the caller to write.
fn route(
    req: &Request,
    shared: &Arc<RouterShared>,
    worker: &mut Worker,
    first_byte: Instant,
    writer: &mut TcpStream,
    keep_alive: bool,
) -> Option<Response> {
    match (req.method, req.path.as_str()) {
        (Method::Get, path) if path.starts_with("/recommend/") => {
            proxy(req, shared, worker, first_byte, writer, keep_alive);
            None
        }
        (Method::Get, "/healthz") => Some(healthz(shared)),
        (Method::Get, "/fleet/status") => Some(fleet_status(shared)),
        (Method::Post, "/fleet/register") => Some(register(req, shared)),
        (Method::Get, "/metrics") => {
            shared
                .registry
                .gauge("fleet.alive")
                .set(shared.members.alive_count() as f64);
            shared
                .registry
                .gauge("fleet.members")
                .set(shared.members.len() as f64);
            shared
                .registry
                .gauge("fleet.retry.budget")
                .set(shared.retry_budget.available() as f64);
            Some(Response::text(200, shared.registry.render_text()))
        }
        (Method::Get, "/debug/traces") => {
            let n = req
                .query_value("n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(32);
            Some(render_traces(shared, shared.tracer.recent(n)))
        }
        (Method::Get, "/debug/slow") => Some(render_traces(shared, shared.tracer.slowest())),
        (Method::Post, "/fleet/pause") => {
            let (epoch, drained) = shared.gate.pause(shared.pause_max_wait);
            shared.registry.counter("fleet.pause").inc();
            // Auto-resume guard: a crashed rollout driver must not wedge
            // the fleet. Keyed by epoch so it never cancels a later pause.
            {
                let shared = Arc::clone(shared);
                let guard = shared.pause_guard;
                std::thread::Builder::new()
                    .name("clapf-fleet-pause-guard".into())
                    .spawn(move || {
                        std::thread::sleep(guard);
                        if shared.gate.resume(Some(epoch)) {
                            shared.registry.counter("fleet.pause.expired").inc();
                        }
                    })
                    .ok();
            }
            Some(Response::json(
                200,
                JsonValue::Obj(vec![
                    ("status".into(), JsonValue::Str("paused".into())),
                    ("drained".into(), JsonValue::Bool(drained)),
                ])
                .render(),
            ))
        }
        (Method::Post, "/fleet/resume") => {
            let resumed = shared.gate.resume(None);
            Some(Response::json(
                200,
                JsonValue::Obj(vec![
                    ("status".into(), JsonValue::Str("resumed".into())),
                    ("was_paused".into(), JsonValue::Bool(resumed)),
                ])
                .render(),
            ))
        }
        (Method::Post, "/shutdown") => {
            shared.begin_shutdown();
            Some(Response::json(
                200,
                JsonValue::Obj(vec![(
                    "status".into(),
                    JsonValue::Str("shutting down".into()),
                )])
                .render(),
            ))
        }
        _ => {
            shared.registry.counter("fleet.not_found").inc();
            Some(Response::error(404, "no such endpoint"))
        }
    }
}

/// `POST /fleet/register?name=…&addr=…` — registration and heartbeat are
/// the same idempotent call. Replies with the slot and the lease TTL so
/// the replica can pace its heartbeats.
fn register(req: &Request, shared: &RouterShared) -> Response {
    let Some(name) = req.query_value("name").filter(|n| !n.is_empty()) else {
        return Response::error(400, "register needs a non-empty name=");
    };
    let Some(addr) = req
        .query_value("addr")
        .and_then(|a| a.parse::<SocketAddr>().ok())
    else {
        return Response::error(400, "register needs addr=IP:PORT");
    };
    let reg = shared.members.register(name, addr, Instant::now());
    count_registration(shared, &reg);
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::Str("ok".into())),
            ("slot".into(), JsonValue::UInt(reg.slot as u64)),
            (
                "lease_ms".into(),
                JsonValue::UInt(shared.members.lease_ttl().as_millis() as u64),
            ),
        ])
        .render(),
    )
}

fn healthz(shared: &RouterShared) -> Response {
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::Str("ok".into())),
            ("role".into(), JsonValue::Str("router".into())),
            (
                "replicas".into(),
                JsonValue::UInt(shared.members.len() as u64),
            ),
            (
                "alive".into(),
                JsonValue::UInt(shared.members.alive_count() as u64),
            ),
            ("paused".into(), JsonValue::Bool(shared.gate.is_paused())),
        ])
        .render(),
    )
}

fn fleet_status(shared: &RouterShared) -> Response {
    let now = Instant::now();
    let (_, slots) = shared.members.snapshot();
    let replicas: Vec<JsonValue> = slots
        .iter()
        .enumerate()
        .map(|(s, st)| {
            let lease = match st.lease_view(now) {
                LeaseView::Static => JsonValue::Str("static".into()),
                LeaseView::Remaining(d) => JsonValue::UInt(d.as_millis() as u64),
                LeaseView::Expired => JsonValue::Str("expired".into()),
            };
            JsonValue::Obj(vec![
                ("slot".into(), JsonValue::UInt(s as u64)),
                ("name".into(), JsonValue::Str(st.name().to_string())),
                ("addr".into(), JsonValue::Str(st.addr().to_string())),
                ("alive".into(), JsonValue::Bool(st.is_alive())),
                (
                    "inflight".into(),
                    JsonValue::UInt(st.inflight.load(Ordering::Relaxed)),
                ),
                ("lease_ms".into(), lease),
                (
                    "breaker".into(),
                    JsonValue::Str(st.breaker.state().name().into()),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("paused".into(), JsonValue::Bool(shared.gate.is_paused())),
            (
                "uptime_ms".into(),
                JsonValue::UInt(shared.started.elapsed().as_millis() as u64),
            ),
            (
                "retry_budget".into(),
                JsonValue::UInt(shared.retry_budget.available()),
            ),
            ("replicas".into(), JsonValue::Arr(replicas)),
        ])
        .render(),
    )
}

fn render_traces(shared: &RouterShared, traces: Vec<FinishedTrace>) -> Response {
    Response::json(
        200,
        JsonValue::Obj(vec![
            (
                "sample_every".into(),
                JsonValue::UInt(shared.tracer.sample_every()),
            ),
            ("count".into(), JsonValue::UInt(traces.len() as u64)),
            (
                "traces".into(),
                JsonValue::Arr(traces.iter().map(|t| t.to_json()).collect()),
            ),
        ])
        .render(),
    )
}

/// Proxies one `/recommend` request: gate, pick, relay — hedging the
/// first attempt, retrying within budget, degrading when unroutable.
fn proxy(
    req: &Request,
    shared: &Arc<RouterShared>,
    worker: &mut Worker,
    first_byte: Instant,
    writer: &mut TcpStream,
    keep_alive: bool,
) {
    let started = Instant::now();
    shared.registry.counter("fleet.recommend.requests").inc();

    // The hash key is the raw user id — path segment between "/recommend/"
    // and the end (query excluded), exactly what replicas key caches on.
    let user = &req.path["/recommend/".len()..];

    if !shared.gate.enter(shared.pause_max_wait) {
        shared.registry.counter("fleet.shed").inc();
        let _ = Response::error(503, "fleet paused, retry shortly")
            .with_header("Retry-After", "1")
            .write_to(writer, false);
        return;
    }
    let mut trace = shared.tracer.begin_at(first_byte);
    let st = stages();
    if let Some(t) = trace.as_mut() {
        t.lap(st.parse);
    }

    let path_q = full_path(req);
    let outcome = forward(user, &path_q, shared, worker, trace.as_mut());
    shared.gate.leave();

    let response = match outcome {
        Ok(upstream) => {
            let response = relay_response(upstream);
            if response.status == 200 {
                shared.fallback.insert(&path_q, &response.body);
            }
            response
        }
        Err(fail) => degraded_response(shared, &path_q, fail),
    };
    let write_ok = response.write_to(writer, keep_alive).is_ok();
    if let Some(mut t) = trace {
        t.lap(st.write);
        let (id, _) = shared.tracer.finish(t);
        let h = shared.registry.histogram("fleet.recommend.latency_ms", || {
            clapf_telemetry::Histogram::exponential(0.01, 2.0, 15)
        });
        h.record_exemplar(started.elapsed().as_secs_f64() * 1e3, id.get());
    } else {
        shared
            .registry
            .histogram("fleet.recommend.latency_ms", || {
                clapf_telemetry::Histogram::exponential(0.01, 2.0, 15)
            })
            .record(started.elapsed().as_secs_f64() * 1e3);
    }
    let _ = write_ok; // client gone mid-write: the connection loop notices
}

/// Why a forward produced no upstream response.
enum ForwardFail {
    /// The ring walk found no routable slot (all dead, tripped, or
    /// excluded): degraded mode answers, or a typed 503.
    Unroutable,
    /// Slots were routable but every permitted attempt failed.
    Exhausted(std::io::Error),
}

/// Builds the degraded-path answer: the stale fallback body when one is
/// cached for this exact request, a typed 503 + `Retry-After` otherwise.
/// Either way the client gets an immediate, well-formed answer — the
/// all-slots-dead path must never hang or panic.
fn degraded_response(shared: &RouterShared, path_q: &str, fail: ForwardFail) -> Response {
    if let Some(body) = shared.fallback.get(path_q) {
        shared.registry.counter("fleet.degraded.served").inc();
        return Response {
            status: 200,
            content_type: "application/json",
            extra_headers: vec![("X-Clapf-Degraded", "stale".to_string())],
            body,
        };
    }
    shared.registry.counter("fleet.unroutable").inc();
    let reason = match fail {
        ForwardFail::Unroutable => "no live replica for this user, retry shortly".to_string(),
        ForwardFail::Exhausted(e) => format!("replicas unreachable: {e}"),
    };
    Response::error(503, &reason).with_header("Retry-After", "1")
}

/// Settles one finished hedge-runner call: in-flight accounting, breaker
/// and latency updates, and connection reclamation. Every submitted job
/// flows through here exactly once, prompt or late.
fn settle(shared: &RouterShared, worker: &mut Worker, done: HedgeDone) -> std::io::Result<Reply> {
    if let Some(state) = shared.members.get(done.slot as usize) {
        state.inflight.fetch_sub(1, Ordering::Relaxed);
        match &done.result {
            Ok(_) => {
                shared.succeed_slot(&state, done.elapsed);
                let pooled = worker.pool_slot(done.slot);
                if pooled.is_none() && done.upstream.addr() == state.addr() {
                    *pooled = Some(done.upstream);
                }
            }
            Err(_) => shared.fail_slot(&state),
        }
    }
    done.result
}

/// Drains any completions left over from earlier requests (abandoned
/// hedged primaries), keeping inflight counts and breakers honest.
fn reap(shared: &RouterShared, worker: &mut Worker) {
    while let Some(done) = worker
        .runner
        .as_mut()
        .and_then(|r| if r.outstanding() > 0 { r.try_recv() } else { None })
    {
        let _ = settle(shared, worker, done);
    }
}

/// Walks the ring for `user`, claiming the picked slot's breaker. Slots
/// whose breaker rejects the claim are excluded and the walk re-picks, so
/// a half-open slot only ever sees its single probe request.
fn claim_slot(
    shared: &RouterShared,
    user: &str,
    excluded: &mut Vec<u32>,
) -> Option<(u32, Arc<SlotState>, Admission)> {
    let (ring, slots) = shared.members.snapshot();
    if slots.is_empty() {
        return None;
    }
    let now = Instant::now();
    loop {
        let alive: Vec<bool> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.is_alive() && !excluded.contains(&(i as u32)) && s.breaker.routable(now)
            })
            .collect();
        let inflight: Vec<u64> = slots
            .iter()
            .map(|s| s.inflight.load(Ordering::Relaxed))
            .collect();
        let slot = ring.pick(user, &alive, &inflight)?;
        match slots[slot as usize].breaker.try_claim(now) {
            Admission::Rejected => {
                excluded.push(slot);
                continue;
            }
            adm => return Some((slot, Arc::clone(&slots[slot as usize]), adm)),
        }
    }
}

/// One synchronous upstream call on the worker's own pooled connection.
fn call_slot(
    shared: &RouterShared,
    worker: &mut Worker,
    state: &SlotState,
    slot: u32,
    path_q: &str,
    trace_id: Option<u64>,
) -> std::io::Result<Reply> {
    state.inflight.fetch_add(1, Ordering::Relaxed);
    let addr = state.addr();
    let timeout = shared.upstream_timeout;
    let up = worker
        .pool_slot(slot)
        .get_or_insert_with(|| Upstream::new(addr, timeout));
    up.set_addr(addr);
    let t = Instant::now();
    let result = up.request("GET", path_q, trace_id);
    state.inflight.fetch_sub(1, Ordering::Relaxed);
    match &result {
        Ok(_) => shared.succeed_slot(state, t.elapsed()),
        Err(_) => shared.fail_slot(state),
    }
    result
}

/// Waits for the hedged primary with sequence `seq`, settling any strays
/// that land first. `None` means the wait timed out (the job stays
/// outstanding; a later [`reap`] settles it).
fn wait_primary(
    shared: &RouterShared,
    worker: &mut Worker,
    seq: u64,
    timeout: Duration,
) -> Option<std::io::Result<Reply>> {
    let deadline = Instant::now() + timeout;
    loop {
        let now = Instant::now();
        let remaining = deadline.checked_duration_since(now)?;
        let done = {
            let runner = worker.runner.as_mut().expect("runner exists while waiting");
            runner.recv_timeout(remaining)?
        };
        let is_ours = done.seq == seq;
        let result = settle(shared, worker, done);
        if is_ours {
            return Some(result);
        }
    }
}

/// The first attempt's call: hedged when the policy, warm-up, and budget
/// allow; a plain pooled call otherwise. On a hedge, the primary runs on
/// the helper thread while this worker races a secondary against the next
/// ring candidate — first well-formed answer wins.
#[allow(clippy::too_many_arguments)]
fn first_attempt(
    shared: &RouterShared,
    worker: &mut Worker,
    user: &str,
    state: &Arc<SlotState>,
    slot: u32,
    path_q: &str,
    trace_id: Option<u64>,
    excluded: &mut Vec<u32>,
    trace: &mut Option<&mut Trace>,
) -> std::io::Result<Reply> {
    let Some(delay) = hedge_delay(&shared.hedge, &shared.latency) else {
        return call_slot(shared, worker, state, slot, path_q, trace_id);
    };

    // Move the pooled connection into the helper; it comes back through
    // settle() whenever the primary finishes.
    let addr = state.addr();
    let timeout = shared.upstream_timeout;
    let mut up = worker
        .pool_slot(slot)
        .take()
        .unwrap_or_else(|| Upstream::new(addr, timeout));
    up.set_addr(addr);
    let seq = worker.next_seq;
    worker.next_seq += 1;
    state.inflight.fetch_add(1, Ordering::Relaxed);
    worker.runner().submit(HedgeJob {
        seq,
        slot,
        upstream: up,
        path: path_q.to_string(),
        trace: trace_id,
    });

    // Fast path: the primary answers within the hedge delay.
    if let Some(result) = wait_primary(shared, worker, seq, delay) {
        return result;
    }

    // The primary is past p99. Spend a hedge token and race a secondary
    // against the next ring candidate.
    if !shared.hedge_budget.try_withdraw() {
        shared.registry.counter("fleet.hedge.budget_exhausted").inc();
        return wait_primary(shared, worker, seq, shared.upstream_timeout)
            .unwrap_or_else(|| Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "primary upstream never answered",
            )));
    }
    shared.registry.counter("fleet.hedge.fired").inc();
    if let Some(t) = trace.as_deref_mut() {
        t.lap(stages().hedge);
    }
    excluded.push(slot);
    let Some((slot2, state2, _adm)) = claim_slot(shared, user, excluded) else {
        // Nowhere to hedge to: keep waiting on the primary.
        return wait_primary(shared, worker, seq, shared.upstream_timeout)
            .unwrap_or_else(|| Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "primary upstream never answered",
            )));
    };
    match call_slot(shared, worker, &state2, slot2, path_q, trace_id) {
        Ok(resp) => {
            // If the primary is still outstanding the secondary genuinely
            // arrived first — a hedge win. (A primary that landed while
            // the secondary ran gets settled here or by a later reap.)
            let mut primary_finished = false;
            while let Some(done) = worker.runner.as_mut().and_then(|r| r.try_recv()) {
                let ours = done.seq == seq;
                let _ = settle(shared, worker, done);
                if ours {
                    primary_finished = true;
                }
            }
            if !primary_finished {
                shared.registry.counter("fleet.hedge.wins").inc();
            }
            Ok(resp)
        }
        Err(_) => {
            // Secondary lost its race with failure; the primary is the
            // only hope left — wait it out.
            wait_primary(shared, worker, seq, shared.upstream_timeout).unwrap_or_else(|| {
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "both primary and hedge failed",
                ))
            })
        }
    }
}

/// Picks slots and forwards, hedging the first attempt and retrying
/// through the ring while the retry budget lasts (three upstream calls
/// per request, max — plus at most one hedge).
fn forward(
    user: &str,
    path_q: &str,
    shared: &RouterShared,
    worker: &mut Worker,
    mut trace: Option<&mut Trace>,
) -> Result<Reply, ForwardFail> {
    let st = stages();
    reap(shared, worker);
    shared.retry_budget.deposit();
    shared.hedge_budget.deposit();

    let mut excluded: Vec<u32> = Vec::new();
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..3 {
        if attempt > 0 {
            if !shared.retry_budget.try_withdraw() {
                shared.registry.counter("fleet.retry.budget_exhausted").inc();
                break;
            }
            shared.registry.counter("fleet.retries").inc();
        }
        let Some((slot, state, _adm)) = claim_slot(shared, user, &mut excluded) else {
            break;
        };
        if let Some(t) = trace.as_deref_mut() {
            t.lap(st.pick);
        }
        let trace_id = trace.as_deref_mut().map(|t| t.id().get());
        let result = if attempt == 0 {
            first_attempt(
                shared, worker, user, &state, slot, path_q, trace_id, &mut excluded, &mut trace,
            )
        } else {
            call_slot(shared, worker, &state, slot, path_q, trace_id)
        };
        match result {
            Ok(resp) => {
                if let Some(t) = trace.as_deref_mut() {
                    t.lap(if attempt == 0 { st.upstream } else { st.retry });
                }
                return Ok(resp);
            }
            Err(e) => {
                // The slot (and possibly its hedge partner) failed; its
                // breaker and liveness were updated at the call site. The
                // health checker re-admits it when it answers again; the
                // next loop iteration re-picks around it.
                if !excluded.contains(&slot) {
                    excluded.push(slot);
                }
                last_err = Some(e);
            }
        }
    }
    match last_err {
        Some(e) => Err(ForwardFail::Exhausted(e)),
        None => Err(ForwardFail::Unroutable),
    }
}

/// Reassembles path + query for the upstream hop (the parser split and
/// percent-decoded them; re-encode only what the hop needs intact).
fn full_path(req: &Request) -> String {
    let mut p = percent_encode(&req.path);
    for (i, (k, v)) in req.query.iter().enumerate() {
        p.push(if i == 0 { '?' } else { '&' });
        p.push_str(&percent_encode(k));
        p.push('=');
        p.push_str(&percent_encode(v));
    }
    p
}

/// Minimal percent-encoding for the upstream request target: everything
/// URL-special or non-ASCII is escaped, so a decoded client path survives
/// the second parse on the replica byte-identically.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        let keep = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~' | b'/');
        if keep {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Maps an upstream reply onto a local [`Response`] for relay. The body
/// travels verbatim; the content type is matched back to the static set
/// `clapf-serve` emits, so the relayed header bytes are identical too, and
/// a shed's `Retry-After` hint reaches the client as it would directly.
fn relay_response(upstream: Reply) -> Response {
    let content_type: &'static str = match upstream.content_type.as_str() {
        "application/json" => "application/json",
        "text/plain; version=0.0.4" => "text/plain; version=0.0.4",
        _ => "application/octet-stream",
    };
    let extra_headers = upstream
        .header("Retry-After")
        .map(|v| vec![("Retry-After", v.to_string())])
        .unwrap_or_default();
    match String::from_utf8(upstream.body) {
        Ok(body) => Response {
            status: upstream.status,
            content_type,
            extra_headers,
            body,
        },
        Err(_) => Response::error(502, "upstream body is not UTF-8"),
    }
}
