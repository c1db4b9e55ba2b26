//! The server proper: startup, routing, reload, shutdown.
//!
//! One transport serves every connection: a readiness-loop thread owning
//! every nonblocking socket (epoll on Linux, a portable scan poller
//! elsewhere; see [`crate::poller`] and [`crate::transport`]), with
//! `/recommend` cache misses scored by a pool of `workers` scorer threads
//! in cross-request micro-batches (see [`crate::batch`]): concurrent misses
//! amortize one item-table sweep across up to `batch_max` users.
//!
//! Shutdown is cooperative and std-only: a flag flips, a loopback
//! connection wakes the poller wait (the listener becoming readable is
//! itself an event), and in-flight work drains before the threads exit.

use crate::batch::Batcher;
use crate::cache::TopKCache;
use crate::http::{Method, Request, Response};
use crate::model::{ModelSlot, ServingModel};
use crate::trace::stages;
use crate::{bundle::BundleError, transport::EventOpts};
use clapf_telemetry::{Histogram, JsonValue, Registry, Trace, TraceId, Tracer};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which connection-handling machinery a server runs. The event loop is
/// the only one; the type stays because callers such as the benchmark
/// (`perfbench/src/serve.rs`) name `Transport::EventLoop` explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Transport {
    /// One nonblocking readiness loop plus a micro-batching scorer pool.
    #[default]
    EventLoop,
}

/// Top-k cache lock shards.
const CACHE_SHARDS: usize = 8;
/// `k` used when the request has no `?k=` parameter.
const DEFAULT_K: usize = 10;
/// Largest accepted `k` (caps per-request work).
const MAX_K: usize = 1000;

/// How a server is sized and where it listens.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Batch scorer threads.
    pub workers: usize,
    /// Total top-k cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Poll interval for the bundle-file watcher; `None` disables watching
    /// (reloads then only happen via `POST /reload`).
    pub watch_poll: Option<Duration>,
    /// Total wall-clock budget for reading one request (line + headers +
    /// body), measured from its first byte. Defeats slow-loris clients;
    /// idle keep-alive connections are unaffected.
    pub read_cap: Duration,
    /// How long a response may sit unflushed before its connection is
    /// dropped (a peer that stops reading cannot hold its buffers forever).
    pub write_timeout: Duration,
    /// Which transport serves connections.
    pub transport: Transport,
    /// Most `/recommend` requests scored in one batch.
    pub batch_max: usize,
    /// Most simultaneously open connections; beyond it new accepts are
    /// shed with a 503.
    pub max_conns: usize,
    /// Most queued score jobs; beyond it misses are shed with a 503 +
    /// `Retry-After` while the connection stays open.
    pub pending_bound: usize,
    /// Force the portable scan poller even where epoll is available —
    /// exercises the fallback path in tests.
    pub force_scan_poller: bool,
    /// Trace one in this many requests (0 disables tracing). Sampled
    /// requests record per-stage spans, exposed at `GET /debug/traces`,
    /// `GET /debug/slow`, and as exemplars on `/metrics` latency buckets.
    pub trace_sample: u64,
    /// When set, a heartbeat thread registers this replica with a fleet
    /// router and keeps renewing its membership lease (see
    /// [`RegisterConfig`](crate::RegisterConfig)). `None` serves
    /// standalone.
    pub register: Option<crate::register::RegisterConfig>,
    /// Expose `POST /fault/arm` and `POST /fault/reset` so an external
    /// chaos driver can arm this process's failpoints over HTTP. Off by
    /// default — only test harnesses should ever turn this on.
    pub fault_control: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            cache_capacity: 4096,
            watch_poll: None,
            read_cap: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            transport: Transport::EventLoop,
            batch_max: 32,
            max_conns: 10_000,
            pending_bound: 4096,
            force_scan_poller: false,
            trace_sample: 0,
            register: None,
            fault_control: false,
        }
    }
}

/// Why the server failed to start or reload.
#[derive(Debug)]
pub enum ServeError {
    /// The initial bundle could not be loaded.
    Bundle(BundleError),
    /// Binding or socket configuration failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bundle(e) => write!(f, "loading bundle: {e}"),
            ServeError::Io(e) => write!(f, "socket: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) slot: ModelSlot,
    pub(crate) cache: TopKCache,
    pub(crate) registry: Arc<Registry>,
    pub(crate) bundle_path: PathBuf,
    /// A bundle staged by `POST /bundle/stage` (loaded and validated off to
    /// the side from `<bundle_path>.next`), waiting for the fleet-wide
    /// commit. Swapping it in is a pointer flip, so a two-phase rollout's
    /// commit step is near-instant on every replica.
    staged: Mutex<Option<ServingModel>>,
    /// Serializes reloads (watcher vs. `POST /reload`).
    reload_lock: Mutex<()>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) read_cap: Duration,
    pub(crate) write_timeout: Duration,
    /// Head-based request sampler; finished traces feed `/debug/traces`
    /// (recent ring), `/debug/slow` (slowest-K log) and metric exemplars.
    pub(crate) tracer: Tracer,
    /// Whether `POST /fault/arm` / `POST /fault/reset` are routable.
    fault_control: bool,
}

fn latency_histogram() -> Histogram {
    // 0.01 ms … ~160 ms in ×2 steps, plus the overflow bucket.
    Histogram::exponential(0.01, 2.0, 15)
}

impl Shared {
    pub(crate) fn observe(&self, endpoint: &str, started: Instant) {
        self.observe_traced(endpoint, started, None);
    }

    /// [`observe`](Self::observe), attaching the request's trace id to the
    /// latency bucket it lands in (rendered as an OpenMetrics exemplar) so
    /// a spike on `/metrics` links to a full per-stage breakdown.
    pub(crate) fn observe_traced(&self, endpoint: &str, started: Instant, trace: Option<TraceId>) {
        self.registry
            .counter(&format!("serve.{endpoint}.requests"))
            .inc();
        let h = self
            .registry
            .histogram(&format!("serve.{endpoint}.latency_ms"), latency_histogram);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match trace {
            Some(id) => h.record_exemplar(ms, id.get()),
            None => h.record(ms),
        }
    }

    /// Begins a trace for one request: adopts the upstream id from an
    /// `X-Clapf-Trace` header when present (the router already made the
    /// sampling decision for this request — both sides' `/debug/traces`
    /// then share the id), falls back to head-based sampling otherwise.
    /// A propagated id never forces tracing on a server that has it off.
    pub(crate) fn begin_trace(&self, parent: Option<u64>, first_byte: Instant) -> Option<Trace> {
        match parent {
            Some(raw) if self.tracer.enabled() => {
                Some(Trace::begin_at(TraceId::from_raw(raw), first_byte))
            }
            _ => self.tracer.begin_at(first_byte),
        }
    }

    /// `<bundle_path>.next` — where a fleet rollout parks the candidate
    /// bundle file before `POST /bundle/stage`.
    pub(crate) fn next_path(&self) -> PathBuf {
        let mut os = self.bundle_path.clone().into_os_string();
        os.push(".next");
        PathBuf::from(os)
    }

    /// `<bundle_path>.prev` — the hard link to the previous bundle a commit
    /// leaves behind so an abort can restore it.
    pub(crate) fn prev_path(&self) -> PathBuf {
        let mut os = self.bundle_path.clone().into_os_string();
        os.push(".prev");
        PathBuf::from(os)
    }

    /// Loads and validates `<bundle_path>.next` off to the side and parks
    /// it in the staged slot (replacing any earlier staged bundle). The
    /// live model is untouched. Returns the staged fingerprint.
    fn stage_next(&self) -> Result<u64, BundleError> {
        clapf_faults::check("serve.bundle.stage").map_err(BundleError::Io)?;
        let model = ServingModel::load(&self.next_path(), 0)?;
        let fp = model.fingerprint;
        *self.staged.lock().expect("staged slot poisoned") = Some(model);
        self.registry.counter("serve.bundle.staged").inc();
        Ok(fp)
    }

    /// Commits the staged bundle: verifies its fingerprint matches `want`
    /// (the rollout driver's torn-rollout guard), makes the flip durable on
    /// disk, then publishes the model. Returns `(generation, fingerprint)`;
    /// errors carry the HTTP status to answer with (`409` when there is
    /// nothing matching to commit, `500` when disk I/O failed — the staged
    /// bundle is kept so the driver can retry or abort).
    fn commit_staged(&self, want: u64) -> Result<(u64, u64), (u16, String)> {
        let _guard = self.reload_lock.lock().expect("reload lock poisoned");
        let mut staged = self.staged.lock().expect("staged slot poisoned");
        match staged.as_ref() {
            None => return Err((409, "no staged bundle to commit".into())),
            Some(m) if m.fingerprint != want => {
                return Err((
                    409,
                    format!(
                        "staged fingerprint {:016x} does not match requested {:016x}",
                        m.fingerprint, want
                    ),
                ))
            }
            Some(_) => {}
        }
        if let Err(e) = clapf_faults::check("serve.bundle.commit") {
            return Err((500, format!("commit fault: {e}")));
        }
        // Durability, in crash-safe order: keep the old bundle reachable at
        // `.prev` (hard link — no copy), then rename `.next` over the live
        // path. There is no instant without a valid bundle file on disk,
        // and `.prev` is exactly what an abort restores.
        let prev = self.prev_path();
        let _ = std::fs::remove_file(&prev);
        if let Err(e) = std::fs::hard_link(&self.bundle_path, &prev) {
            return Err((500, format!("preserving previous bundle: {e}")));
        }
        if let Err(e) = std::fs::rename(self.next_path(), &self.bundle_path) {
            return Err((500, format!("installing staged bundle: {e}")));
        }
        let mut model = staged.take().expect("staged presence checked above");
        let gen = self.cache.generation() + 1;
        model.generation = gen;
        let fp = model.fingerprint;
        // Same publish order as reload(): model first, then cache bump.
        self.slot.swap(model);
        self.cache.bump_generation();
        self.registry.counter("serve.bundle.committed").inc();
        Ok((gen, fp))
    }

    /// Aborts a rollout of the bundle fingerprinted `bad`: drops any staged
    /// bundle and deletes `<bundle_path>.next`. If this replica already
    /// committed `bad` (split-brain mid-rollout), restores `.prev` over the
    /// live path and reloads — the previous bundle comes back under a fresh
    /// generation, so the cache stays coherent. Returns the live
    /// `(generation, fingerprint)` after the abort.
    fn abort_staged(&self, bad: u64) -> Result<(u64, u64), (u16, String)> {
        let _guard = self.reload_lock.lock().expect("reload lock poisoned");
        self.staged.lock().expect("staged slot poisoned").take();
        let _ = std::fs::remove_file(self.next_path());
        let live = self.slot.current();
        if live.fingerprint == bad {
            if let Err(e) = std::fs::rename(self.prev_path(), &self.bundle_path) {
                return Err((500, format!("restoring previous bundle: {e}")));
            }
            if let Err(e) = self.reload_locked() {
                return Err((500, format!("reloading previous bundle: {e}")));
            }
        }
        self.registry.counter("serve.bundle.aborted").inc();
        let live = self.slot.current();
        Ok((live.generation, live.fingerprint))
    }

    /// Loads the bundle from disk and publishes it; the live model is
    /// untouched on failure. Returns the new generation.
    fn reload(&self) -> Result<u64, BundleError> {
        let _guard = self.reload_lock.lock().expect("reload lock poisoned");
        self.reload_locked()
    }

    /// [`reload`](Self::reload) with the reload lock already held.
    fn reload_locked(&self) -> Result<u64, BundleError> {
        let next_gen = self.cache.generation() + 1;
        match ServingModel::load(&self.bundle_path, next_gen) {
            Ok(model) => {
                // Order matters: publish the model first, then invalidate
                // the cache. A handler between the two steps pins the new
                // model and misses (its generation is ahead of the cache's),
                // which costs one recompute — never a stale or torn answer.
                self.slot.swap(model);
                self.cache.bump_generation();
                self.registry.counter("serve.reload.ok").inc();
                Ok(next_gen)
            }
            Err(e) => {
                self.registry.counter("serve.reload.errors").inc();
                Err(e)
            }
        }
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the event loop out of its poller wait: a connection attempt
        // makes the listener readable.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`shutdown`](ServerHandle::shutdown) or [`wait`](ServerHandle::wait).
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The current model generation.
    pub fn generation(&self) -> u64 {
        self.shared.slot.current().generation
    }

    /// Triggers a reload from the bundle path, as `POST /reload` would.
    pub fn reload(&self) -> Result<u64, BundleError> {
        self.shared.reload()
    }

    /// Initiates a graceful shutdown and blocks until every connection and
    /// in-flight score has drained.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Blocks until something else (e.g. `POST /shutdown`) stops the
    /// server, then drains exactly like [`shutdown`](ServerHandle::shutdown).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Loads the bundle at `bundle_path` and starts serving it per `config`.
/// Metrics land in `registry` (exposed at `GET /metrics`).
pub fn start(
    bundle_path: PathBuf,
    config: ServeConfig,
    registry: Arc<Registry>,
) -> Result<ServerHandle, ServeError> {
    let model = ServingModel::load(&bundle_path, 0).map_err(ServeError::Bundle)?;
    let listener = TcpListener::bind(&config.addr).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;

    let shared = Arc::new(Shared {
        slot: ModelSlot::new(model),
        cache: TopKCache::new(config.cache_capacity, CACHE_SHARDS),
        registry,
        bundle_path,
        staged: Mutex::new(None),
        reload_lock: Mutex::new(()),
        shutdown: AtomicBool::new(false),
        addr,
        read_cap: config.read_cap,
        write_timeout: config.write_timeout,
        tracer: Tracer::new(config.trace_sample, 256, 8),
        fault_control: config.fault_control,
    });

    let mut threads = start_event_loop(&shared, listener, &config)?;

    if let Some(poll) = config.watch_poll {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("clapf-serve-watch".into())
                .spawn(move || crate::watch::watch_bundle(&shared_watch(&shared), poll))
                .expect("spawn watcher"),
        );
    }

    if let Some(register) = config.register {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("clapf-serve-register".into())
                .spawn(move || crate::register::heartbeat_loop(shared, register))
                .expect("spawn register heartbeat"),
        );
    }

    Ok(ServerHandle { shared, threads })
}

/// A connected loopback socket pair — the std-only self-pipe the scorer
/// pool uses to interrupt the poller wait when completions are ready.
fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    // The write side never blocks the scorer: a full pipe just means a
    // wake is already pending.
    tx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// The event transport: one readiness-loop thread plus `workers` batch
/// scorer threads.
fn start_event_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    config: &ServeConfig,
) -> Result<Vec<std::thread::JoinHandle<()>>, ServeError> {
    let (waker_tx, waker_rx) = loopback_pair().map_err(ServeError::Io)?;
    let batcher = Arc::new(Batcher::new(waker_tx, config.batch_max));
    shared.registry.gauge("serve.conns").set(0.0);
    let mut threads = Vec::new();
    for n in 0..config.workers.max(1) {
        let batcher = Arc::clone(&batcher);
        let shared = Arc::clone(shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("clapf-serve-scorer-{n}"))
                .spawn(move || crate::batch::scorer_loop(batcher, shared))
                .expect("spawn scorer"),
        );
    }
    let opts = EventOpts {
        max_conns: config.max_conns.max(1),
        pending_bound: config.pending_bound.max(1),
        prefer_epoll: !config.force_scan_poller,
        coalesce: config.cache_capacity > 0,
    };
    {
        let shared = Arc::clone(shared);
        threads.push(
            std::thread::Builder::new()
                .name("clapf-serve-loop".into())
                .spawn(move || crate::transport::run(shared, listener, waker_rx, batcher, opts))
                .expect("spawn event loop"),
        );
    }
    Ok(threads)
}

/// The narrow view of [`Shared`] the watcher needs, kept private to this
/// crate so `watch.rs` cannot touch routing state.
pub(crate) struct WatchCtx {
    shared: Arc<Shared>,
}

fn shared_watch(shared: &Arc<Shared>) -> WatchCtx {
    WatchCtx {
        shared: Arc::clone(shared),
    }
}

impl WatchCtx {
    pub(crate) fn bundle_path(&self) -> &std::path::Path {
        &self.shared.bundle_path
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn reload(&self) -> Result<u64, BundleError> {
        self.shared.reload()
    }
}

/// A `/recommend` cache miss, split from routing so the event loop can park
/// it on the batch scorer instead of blocking on it.
pub(crate) struct PendingScore {
    /// The raw user id as requested (echoed in the response).
    pub raw_user: String,
    /// Dense user id.
    pub user: u32,
    /// Requested list length.
    pub k: usize,
    /// The model this request pinned; its generation keys the cache.
    pub model: Arc<ServingModel>,
}

/// What routing decided for one request.
pub(crate) enum Routed {
    /// The response is ready (every endpoint but a `/recommend` miss).
    Immediate(Response),
    /// A `/recommend` cache miss: the event loop must score it.
    Score(PendingScore),
}

/// Dispatches one parsed request to its endpoint handler, without blocking
/// on scoring: a `/recommend` cache miss comes back as [`Routed::Score`]
/// for the event loop to resolve.
pub(crate) fn route(req: &Request, shared: &Shared, mut trace: Option<&mut Trace>) -> Routed {
    let started = Instant::now();
    // Failpoint: tests inject handler I/O errors (typed 500) and panics
    // (exercising the event loop's catch_unwind isolation) here.
    if let Err(e) = clapf_faults::check("serve.handler") {
        return Routed::Immediate(Response::error(500, &format!("handler fault: {e}")));
    }
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => {
            let r = healthz(shared);
            shared.observe("healthz", started);
            Routed::Immediate(r)
        }
        (Method::Get, "/metrics") => {
            let r = metrics(shared);
            shared.observe("metrics", started);
            Routed::Immediate(r)
        }
        (Method::Get, "/debug/traces") => {
            let r = crate::trace::debug_traces(&shared.tracer, req);
            shared.observe("debug", started);
            Routed::Immediate(r)
        }
        (Method::Get, "/debug/slow") => {
            let r = crate::trace::debug_slow(&shared.tracer);
            shared.observe("debug", started);
            Routed::Immediate(r)
        }
        (Method::Get, path) if path.starts_with("/recommend/") => {
            match recommend_route(&path["/recommend/".len()..], req, shared, trace.as_deref_mut())
            {
                Routed::Immediate(r) => {
                    shared.observe_traced("recommend", started, trace.map(|t| t.id()));
                    Routed::Immediate(r)
                }
                score => score, // the event loop observes at completion
            }
        }
        (Method::Get, "/bundle/fingerprint") => {
            let model = shared.slot.current();
            let staged = shared
                .staged
                .lock()
                .expect("staged slot poisoned")
                .as_ref()
                .map(|m| JsonValue::Str(format!("{:016x}", m.fingerprint)))
                .unwrap_or(JsonValue::Null);
            let r = Response::json(
                200,
                JsonValue::Obj(vec![
                    ("generation".into(), JsonValue::UInt(model.generation)),
                    (
                        "fingerprint".into(),
                        JsonValue::Str(model.fingerprint_hex()),
                    ),
                    ("staged".into(), staged),
                ])
                .render(),
            );
            shared.observe("bundle", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/bundle/stage") => {
            let r = match shared.stage_next() {
                Ok(fp) => Response::json(
                    200,
                    JsonValue::Obj(vec![
                        ("status".into(), JsonValue::Str("staged".into())),
                        ("fingerprint".into(), JsonValue::Str(format!("{fp:016x}"))),
                    ])
                    .render(),
                ),
                Err(e) => Response::error(500, &format!("stage rejected: {e}")),
            };
            shared.observe("bundle", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/bundle/commit") => {
            let r = match fingerprint_param(req) {
                Err(r) => r,
                Ok(want) => match shared.commit_staged(want) {
                    Ok((gen, fp)) => Response::json(
                        200,
                        JsonValue::Obj(vec![
                            ("status".into(), JsonValue::Str("committed".into())),
                            ("generation".into(), JsonValue::UInt(gen)),
                            ("fingerprint".into(), JsonValue::Str(format!("{fp:016x}"))),
                        ])
                        .render(),
                    ),
                    Err((status, reason)) => Response::error(status, &reason),
                },
            };
            shared.observe("bundle", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/bundle/abort") => {
            let r = match fingerprint_param(req) {
                Err(r) => r,
                Ok(bad) => match shared.abort_staged(bad) {
                    Ok((gen, fp)) => Response::json(
                        200,
                        JsonValue::Obj(vec![
                            ("status".into(), JsonValue::Str("aborted".into())),
                            ("generation".into(), JsonValue::UInt(gen)),
                            ("fingerprint".into(), JsonValue::Str(format!("{fp:016x}"))),
                        ])
                        .render(),
                    ),
                    Err((status, reason)) => Response::error(status, &reason),
                },
            };
            shared.observe("bundle", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/reload") => {
            let r = match shared.reload() {
                Ok(gen) => Response::json(
                    200,
                    JsonValue::Obj(vec![
                        ("status".into(), JsonValue::Str("reloaded".into())),
                        ("generation".into(), JsonValue::UInt(gen)),
                    ])
                    .render(),
                ),
                Err(e) => Response::error(500, &format!("reload rejected: {e}")),
            };
            shared.observe("reload", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/shutdown") => {
            shared.begin_shutdown();
            shared.observe("shutdown", started);
            Routed::Immediate(Response::json(
                200,
                JsonValue::Obj(vec![(
                    "status".into(),
                    JsonValue::Str("shutting down".into()),
                )])
                .render(),
            ))
        }
        // Chaos control plane, routable only when the operator opted in
        // with `fault_control` (the chaos harness starts replicas with
        // `--fault-control`). A process without the flag answers 404, so
        // production replicas expose no fault surface at all.
        (Method::Post, "/fault/arm") if shared.fault_control => {
            let r = fault_arm(req);
            shared.observe("fault", started);
            Routed::Immediate(r)
        }
        (Method::Post, "/fault/reset") if shared.fault_control => {
            clapf_faults::reset();
            shared.registry.counter("serve.fault.reset").inc();
            shared.observe("fault", started);
            Routed::Immediate(Response::json(
                200,
                JsonValue::Obj(vec![("status".into(), JsonValue::Str("reset".into()))]).render(),
            ))
        }
        _ => {
            shared.registry.counter("serve.not_found").inc();
            Routed::Immediate(Response::error(404, "no such endpoint"))
        }
    }
}

/// Arms a failpoint from query parameters: `point` (required),
/// `mode=io|torn|delay|panic` (default `io`), `keep` (torn bytes kept),
/// `ms` (delay), `skip` and `times` (firing window). Mirrors
/// [`clapf_faults::arm_nth`] so a chaos driver in another process can do
/// everything an in-process test can. Note that arming `serve.handler`
/// with an unbounded fault also takes down this endpoint — drivers should
/// bound such faults with `times`.
fn fault_arm(req: &Request) -> Response {
    let Some(point) = req.query_value("point").filter(|p| !p.is_empty()) else {
        return Response::error(400, "point query parameter required");
    };
    let num = |name: &str, default: u64| -> Result<u64, Response> {
        match req.query_value(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| Response::error(400, &format!("{name} must be a non-negative integer"))),
        }
    };
    let fault = match req.query_value("mode").unwrap_or("io") {
        "io" => clapf_faults::Fault::Io,
        "torn" => match num("keep", 0) {
            Ok(keep) => clapf_faults::Fault::Torn { keep: keep as usize },
            Err(r) => return r,
        },
        "delay" => match num("ms", 100) {
            Ok(ms) => clapf_faults::Fault::Delay { ms },
            Err(r) => return r,
        },
        "panic" => clapf_faults::Fault::Panic,
        other => {
            return Response::error(400, &format!("mode must be io|torn|delay|panic, got {other:?}"))
        }
    };
    let skip = match num("skip", 0) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let times = match req.query_value("times") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return Response::error(400, "times must be a non-negative integer"),
        },
    };
    clapf_faults::arm_nth(point, fault, skip, times);
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::Str("armed".into())),
            ("point".into(), JsonValue::Str(point.to_string())),
        ])
        .render(),
    )
}

/// Parses the required `?fingerprint=` (16 hex digits) commit/abort
/// parameter, or the 400 to answer with.
fn fingerprint_param(req: &Request) -> Result<u64, Response> {
    req.query_value("fingerprint")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| {
            Response::error(400, "fingerprint query parameter (hex digits) required")
        })
}

fn healthz(shared: &Shared) -> Response {
    let model = shared.slot.current();
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("status".into(), JsonValue::Str("ok".into())),
            ("generation".into(), JsonValue::UInt(model.generation)),
            (
                "fingerprint".into(),
                JsonValue::Str(model.fingerprint_hex()),
            ),
            (
                "model".into(),
                JsonValue::Str(model.bundle.description.clone()),
            ),
        ])
        .render(),
    )
}

fn metrics(shared: &Shared) -> Response {
    // Gauges are sampled at scrape time; everything else is push-updated.
    shared
        .registry
        .gauge("serve.cache.entries")
        .set(shared.cache.len() as f64);
    shared
        .registry
        .gauge("serve.model.generation")
        .set(shared.slot.current().generation as f64);
    Response::text(200, shared.registry.render_text())
}

/// Validates a `/recommend/{user}` request and answers it from the cache,
/// or hands back a [`PendingScore`] for the event loop to compute.
fn recommend_route(
    raw_user: &str,
    req: &Request,
    shared: &Shared,
    trace: Option<&mut Trace>,
) -> Routed {
    if raw_user.is_empty() || raw_user.contains('/') {
        return Routed::Immediate(Response::error(404, "expected /recommend/{user}"));
    }
    let k = match req.query_value("k") {
        None => DEFAULT_K,
        Some(v) => match v.parse::<usize>() {
            Ok(k) if (1..=MAX_K).contains(&k) => k,
            Ok(_) => {
                return Routed::Immediate(Response::error(
                    400,
                    &format!("k must be between 1 and {MAX_K}"),
                ))
            }
            Err(_) => {
                return Routed::Immediate(Response::error(400, "k must be a positive integer"))
            }
        },
    };

    // Pin the model FIRST; its generation keys every cache interaction, so
    // the cached list and the id map used to render it always come from the
    // same bundle (DESIGN.md §11).
    let model = shared.slot.current();
    let Some(u) = model.dense_user(raw_user) else {
        return Routed::Immediate(Response::error(
            404,
            &format!("user {raw_user:?} not in the training data"),
        ));
    };

    match shared.cache.get(u.0, k, model.generation) {
        Some(items) => {
            shared.registry.counter("serve.cache.hits").inc();
            if let Some(t) = trace {
                t.lap(stages().cache_hit);
            }
            Routed::Immediate(render_recommend(&model, raw_user, k, &items, true))
        }
        None => Routed::Score(PendingScore {
            raw_user: raw_user.to_string(),
            user: u.0,
            k,
            model,
        }),
    }
}

/// Renders the `/recommend` JSON body — the single definition cache hits
/// and the batch scorer's fan-out both serialize through, so a batched
/// answer is byte-identical to a cached one.
pub(crate) fn render_recommend(
    model: &ServingModel,
    raw_user: &str,
    k: usize,
    items: &[u32],
    cached: bool,
) -> Response {
    let rendered: Vec<JsonValue> = items
        .iter()
        .map(|&i| JsonValue::Str(model.raw_item(i).to_string()))
        .collect();
    Response::json(
        200,
        JsonValue::Obj(vec![
            ("user".into(), JsonValue::Str(raw_user.to_string())),
            ("k".into(), JsonValue::UInt(k as u64)),
            ("generation".into(), JsonValue::UInt(model.generation)),
            ("cached".into(), JsonValue::Bool(cached)),
            ("items".into(), JsonValue::Arr(rendered)),
        ])
        .render(),
    )
}
