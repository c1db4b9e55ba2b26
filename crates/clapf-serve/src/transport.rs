//! The event-driven transport: one readiness loop, many connections.
//!
//! A single thread owns every socket: the nonblocking listener, a loopback
//! waker the scorer pool rings when results are ready, and one [`Conn`]
//! state machine per client. Each connection walks
//! `reading → parsing → (immediate | pending-score) → writing`, so tens of
//! thousands of keep-alive connections cost a few hundred bytes of state
//! each instead of a thread each.
//!
//! `/recommend` cache misses do not block the loop: the request parks in
//! `pending` (keyed by [`ScoreKey`], which also coalesces concurrent
//! misses for the same key — exactly one job is queued, every waiter gets
//! the one result) and the loop moves on. The scorer pool (see
//! [`crate::batch`]) drains the queue in generation-pure micro-batches and
//! rings the waker; the loop then fans each completion out to its waiters
//! and resumes any pipelined requests buffered behind them.
//!
//! Overload and abuse protections: `max_conns` caps accepted sockets
//! (beyond it, accept-then-503-shed), `pending_bound` caps queued score
//! jobs (beyond it, per-request 503 with `Retry-After` — the connection
//! survives), and a periodic sweep enforces the read budget (408 to
//! slow-loris writers), the write timeout (peers that stop reading are
//! dropped), and the keep-alive idle limit.
//!
//! Graceful drain: when the shutdown flag flips (POST /shutdown, the
//! handle, or SIGTERM plumbing upstream), the loop stops accepting, marks
//! every connection close-after-flush, lets in-flight batches complete and
//! their responses flush, then exits once no connection or pending score
//! remains. The `begin_shutdown` self-connect wake works unchanged: the
//! listener becoming readable is itself a poller event.

use crate::batch::{Batcher, ScoreJob, ScoreKey};
use crate::conn::{Conn, FlushState};
use crate::http::{Feed, Response};
use crate::model::ServingModel;
use crate::poller::{Event, Fd, Poller};
use crate::server::{render_recommend, route, PendingScore, Routed, Shared};
use crate::trace::stages;
use clapf_telemetry::Trace;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOK_LISTENER: usize = 0;
const TOK_WAKER: usize = 1;
const TOK_BASE: usize = 2;

/// Upper bound on one poller wait; also the cadence of deadline sweeps.
const WAIT_TIMEOUT: Duration = Duration::from_millis(250);
/// Idle keep-alive connections are closed after this long without a request.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(30);

/// Sizing knobs for the event transport.
pub(crate) struct EventOpts {
    /// Most simultaneously open client connections; beyond it new accepts
    /// are shed with a 503.
    pub max_conns: usize,
    /// Most queued score jobs; beyond it `/recommend` misses are shed with
    /// a 503 + `Retry-After` while the connection stays open.
    pub pending_bound: usize,
    /// Use epoll when compiled in (false forces the scan fallback).
    pub prefer_epoll: bool,
    /// Coalesce concurrent misses for one key (true iff the cache is
    /// enabled; with the cache off every request must be scored).
    pub coalesce: bool,
}

/// One parked `/recommend` request waiting for a score completion.
struct Waiter {
    token: usize,
    /// Guards against slab-token reuse: delivery requires the connection's
    /// serial to match the one that parked.
    serial: u64,
    raw_user: String,
    keep_alive: bool,
    started: Instant,
    /// The model the request pinned (renders the answer's id map).
    model: Arc<ServingModel>,
    /// The request's sampled trace, if any; batch phase spans are fanned
    /// onto it at delivery and it finishes when the response flushes.
    trace: Option<Trace>,
}

#[cfg(unix)]
fn sock_fd(s: &TcpStream) -> Fd {
    use std::os::unix::io::AsRawFd;
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn sock_fd(_s: &TcpStream) -> Fd {
    0
}

#[cfg(unix)]
fn listener_fd(l: &TcpListener) -> Fd {
    use std::os::unix::io::AsRawFd;
    l.as_raw_fd()
}

#[cfg(not(unix))]
fn listener_fd(_l: &TcpListener) -> Fd {
    0
}

struct EventLoop {
    shared: Arc<Shared>,
    batcher: Arc<Batcher>,
    poller: Poller,
    listener: TcpListener,
    waker_rx: TcpStream,
    opts: EventOpts,
    /// Connection slab, indexed by `token - TOK_BASE`.
    conns: Vec<Option<Conn>>,
    /// Recycled tokens.
    free: Vec<usize>,
    n_conns: usize,
    /// Next connection serial (see [`Conn::serial`]).
    next_serial: u64,
    /// Next uniqueness salt for non-coalescing score keys.
    next_seq: u64,
    /// Parked requests per in-flight score key. An entry may outlive its
    /// waiters (all disconnected): the job is still in flight, later
    /// arrivals still coalesce onto it, and its completion removes it.
    pending: HashMap<ScoreKey, Vec<Waiter>>,
    draining: bool,
}

/// Runs the event loop until shutdown drains it. Called on a dedicated
/// thread by `server::start`; tears the batcher down on exit so the scorer
/// pool unblocks and joins.
pub(crate) fn run(
    shared: Arc<Shared>,
    listener: TcpListener,
    waker_rx: TcpStream,
    batcher: Arc<Batcher>,
    opts: EventOpts,
) {
    let mut poller = Poller::new(opts.prefer_epoll);
    shared
        .registry
        .counter(&format!("serve.backend.{}", poller.backend()))
        .inc();
    if listener.set_nonblocking(true).is_err()
        || waker_rx.set_nonblocking(true).is_err()
        || poller
            .register(listener_fd(&listener), TOK_LISTENER, false)
            .is_err()
        || poller
            .register(sock_fd(&waker_rx), TOK_WAKER, false)
            .is_err()
    {
        batcher.begin_shutdown();
        return;
    }
    let mut ev = EventLoop {
        shared,
        batcher,
        poller,
        listener,
        waker_rx,
        opts,
        conns: Vec::new(),
        free: Vec::new(),
        n_conns: 0,
        next_serial: 0,
        next_seq: 0,
        pending: HashMap::new(),
        draining: false,
    };
    ev.run();
    ev.batcher.begin_shutdown();
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 16 * 1024];
        let mut last_sweep = Instant::now();
        loop {
            // Failpoint: tests inject transient wait errors here; the loop
            // treats them as spurious wakeups and keeps serving.
            if clapf_faults::check("serve.epoll.wait").is_err() {
                self.shared.registry.counter("serve.epoll.faults").inc();
                events.clear();
            } else if self.poller.wait(&mut events, WAIT_TIMEOUT).is_err() {
                self.shared.registry.counter("serve.epoll.errors").inc();
                events.clear();
            }
            let batch = std::mem::take(&mut events);
            for event in batch {
                match event.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.drain_waker(&mut scratch),
                    token => self.conn_event(token, event, &mut scratch),
                }
            }
            for completion in self.batcher.take_completions() {
                self.deliver(completion);
            }
            if !self.draining && self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_drain();
            }
            if last_sweep.elapsed() >= WAIT_TIMEOUT {
                self.sweep();
                last_sweep = Instant::now();
            }
            if self.draining && self.pending.is_empty() && self.n_conns == 0 {
                return;
            }
        }
    }

    fn conn_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.conns.get_mut(token.checked_sub(TOK_BASE)?)?.as_mut()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.draining {
                        continue; // drop: drain refuses new connections
                    }
                    if self.n_conns >= self.opts.max_conns {
                        self.shed_accept(stream);
                        continue;
                    }
                    self.next_serial += 1;
                    let Ok(conn) = Conn::new(stream, self.next_serial) else {
                        continue;
                    };
                    let token = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1 + TOK_BASE
                    });
                    let fd = sock_fd(&conn.stream);
                    self.conns[token - TOK_BASE] = Some(conn);
                    if self.poller.register(fd, token, false).is_err() {
                        self.conns[token - TOK_BASE] = None;
                        self.free.push(token);
                        continue;
                    }
                    self.n_conns += 1;
                    self.shared
                        .registry
                        .gauge("serve.conns")
                        .set(self.n_conns as f64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Best-effort 503 to a connection over the cap; one nonblocking write,
    /// never a stall on the loop thread.
    fn shed_accept(&mut self, stream: TcpStream) {
        self.shared.registry.counter("serve.shed").inc();
        let _ = stream.set_nonblocking(true);
        let mut buf = Vec::new();
        let _ = Response::error(503, "server overloaded, retry shortly")
            .with_header("Retry-After", "1")
            .write_to(&mut buf, false);
        let mut stream = stream;
        let _ = std::io::Write::write(&mut stream, &buf);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    fn drain_waker(&mut self, scratch: &mut [u8]) {
        loop {
            match std::io::Read::read(&mut self.waker_rx, scratch) {
                Ok(0) => return, // scorer side dropped; completions still drain
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock or a dead waker: nothing to drain
            }
        }
    }

    fn conn_event(&mut self, token: usize, event: Event, scratch: &mut [u8]) {
        if event.readable {
            let outcome = match self.conn_mut(token) {
                Some(conn) => conn.read_ready(scratch),
                None => return,
            };
            match outcome {
                Ok(peer_closed) => {
                    if peer_closed {
                        if let Some(conn) = self.conn_mut(token) {
                            conn.close_after_flush = true;
                        }
                    }
                    self.advance(token);
                }
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        if event.writable && self.conn_mut(token).is_some() {
            self.flush_conn(token);
        }
    }

    /// Parses and dispatches buffered requests until the connection blocks
    /// on bytes or parks on a score, then flushes whatever got queued.
    fn advance(&mut self, token: usize) {
        loop {
            let feed = match self.conn_mut(token) {
                Some(conn) if conn.awaiting.is_none() => conn.parser.next_request(),
                _ => break,
            };
            match feed {
                Feed::Request(req) => {
                    self.handle_request(token, req);
                    if let Some(conn) = self.conn_mut(token) {
                        // The read budget covers one request: restart the
                        // clock iff bytes of the next one are buffered.
                        conn.request_started =
                            (conn.parser.buffered() > 0).then(Instant::now);
                    }
                }
                Feed::NeedMore => {
                    if let Some(conn) = self.conn_mut(token) {
                        if conn.parser.buffered() == 0 {
                            conn.request_started = None;
                        }
                    }
                    break;
                }
                Feed::Closed => {
                    if let Some(conn) = self.conn_mut(token) {
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Feed::Bad { status, reason } => {
                    self.shared.registry.counter("serve.http_errors").inc();
                    if let Some(conn) = self.conn_mut(token) {
                        conn.push_response(&Response::error(status, reason), false);
                    }
                    break;
                }
            }
        }
        self.flush_conn(token);
    }

    fn handle_request(&mut self, token: usize, req: crate::http::Request) {
        let started = Instant::now();
        let shared = Arc::clone(&self.shared);
        let keep_alive = req.keep_alive && !self.draining;
        // Head-based sampling: a sampled request's trace begins at its
        // first buffered byte, so the parse span covers read + parse.
        let first_byte = self
            .conn_mut(token)
            .and_then(|c| c.request_started)
            .unwrap_or(started);
        let mut trace = self.shared.begin_trace(req.trace_parent, first_byte);
        if let Some(t) = trace.as_mut() {
            t.lap(stages().parse);
        }
        // Panic isolation at request granularity: a panic in routing
        // answers 500 and is counted; the loop and every other connection
        // keep going.
        let routed = catch_unwind(AssertUnwindSafe(|| route(&req, &shared, trace.as_mut())));
        match routed {
            Err(_) => {
                self.shared.registry.counter("serve.panics").inc();
                if let Some(conn) = self.conn_mut(token) {
                    conn.push_response(
                        &Response::error(500, "internal error: handler panicked"),
                        keep_alive,
                    );
                }
                self.stash_trace(token, trace);
            }
            Ok(Routed::Immediate(resp)) => {
                if let Some(t) = trace.as_mut() {
                    t.lap(stages().route);
                }
                if let Some(conn) = self.conn_mut(token) {
                    conn.push_response(&resp, keep_alive);
                }
                if let Some(t) = trace.as_mut() {
                    t.lap(stages().render);
                }
                self.stash_trace(token, trace);
            }
            Ok(Routed::Score(p)) => self.park_score(token, p, keep_alive, started, trace),
        }
    }

    /// Parks `trace` on the connection so `flush_conn` can finish it with
    /// a write span once the response drains. A predecessor still parked
    /// there (pipelined sampled requests) is finished as-is first.
    fn stash_trace(&mut self, token: usize, trace: Option<Trace>) {
        let Some(t) = trace else { return };
        let displaced = match self.conn_mut(token) {
            Some(conn) => conn.trace.replace(t),
            None => Some(t), // connection gone: close the trace out now
        };
        if let Some(old) = displaced {
            self.shared.tracer.finish(old);
        }
    }

    /// Parks a cache-missing `/recommend` on the score queue (or sheds it).
    fn park_score(
        &mut self,
        token: usize,
        p: PendingScore,
        keep_alive: bool,
        started: Instant,
        mut trace: Option<Trace>,
    ) {
        if self.batcher.queue_len() >= self.opts.pending_bound {
            self.shared.registry.counter("serve.shed").inc();
            if let Some(conn) = self.conn_mut(token) {
                conn.push_response(
                    &Response::error(503, "server overloaded, retry shortly")
                        .with_header("Retry-After", "1"),
                    keep_alive,
                );
            }
            self.stash_trace(token, trace);
            return;
        }
        // Routing + the cache probe end here; the batch spans pick the
        // timeline up from the job's enqueue.
        if let Some(t) = trace.as_mut() {
            t.lap(stages().cache_lookup);
        }
        let seq = if self.opts.coalesce {
            0
        } else {
            self.next_seq += 1;
            self.next_seq
        };
        let key = ScoreKey {
            user: p.user,
            k: p.k,
            generation: p.model.generation,
            seq,
        };
        let serial = match self.conn_mut(token) {
            Some(conn) => {
                conn.awaiting = Some(key);
                conn.serial
            }
            None => return,
        };
        let waiter = Waiter {
            token,
            serial,
            raw_user: p.raw_user,
            keep_alive,
            started,
            model: Arc::clone(&p.model),
            trace,
        };
        match self.pending.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().push(waiter);
                self.shared.registry.counter("serve.cache.coalesced").inc();
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(vec![waiter]);
                self.shared.registry.counter("serve.cache.misses").inc();
                self.batcher.enqueue(ScoreJob {
                    key,
                    model: p.model,
                    enqueued: Instant::now(),
                });
            }
        }
    }

    /// Fans one completion out to every still-connected waiter and resumes
    /// any pipelined requests buffered behind them.
    fn deliver(&mut self, completion: crate::batch::Completion) {
        let Some(waiters) = self.pending.remove(&completion.key) else {
            return;
        };
        for mut w in waiters {
            let resp = {
                let Some(conn) = self.conn_mut(w.token) else {
                    continue;
                };
                if conn.serial != w.serial {
                    continue;
                }
                conn.awaiting = None;
                match &completion.items {
                    Some(items) => {
                        render_recommend(&w.model, &w.raw_user, completion.key.k, items, false)
                    }
                    None => Response::error(500, completion.error),
                }
            };
            let keep_alive = w.keep_alive && !self.draining;
            if let Some(t) = w.trace.as_mut() {
                // The batch's shared phase clock lands on every member
                // request: queue wait until the batch formed, the
                // sweep + cut, and the waker round trip back to this loop.
                let st = stages();
                if let Some(bt) = completion.timing {
                    t.span_between(st.batch_queue, bt.enqueued, bt.formed);
                    t.span_between_with(
                        st.batch_score,
                        bt.formed,
                        bt.scored,
                        &[(st.f_batch, bt.size as u64)],
                    );
                    t.span_between(st.batch_wake, bt.scored, Instant::now());
                }
                t.rebase();
            }
            if let Some(conn) = self.conn_mut(w.token) {
                conn.push_response(&resp, keep_alive);
            }
            if let Some(t) = w.trace.as_mut() {
                t.lap(stages().render);
            }
            self.shared
                .observe_traced("recommend", w.started, w.trace.as_ref().map(|t| t.id()));
            self.stash_trace(w.token, w.trace);
            self.advance(w.token);
        }
    }

    fn flush_conn(&mut self, token: usize) {
        let (result, fd) = match self.conn_mut(token) {
            Some(conn) => (conn.flush(), sock_fd(&conn.stream)),
            None => return,
        };
        match result {
            Ok(FlushState::Flushed) => {
                let mut disarm = false;
                let mut close = false;
                let mut flushed_trace = None;
                if let Some(conn) = self.conn_mut(token) {
                    if conn.wants_write {
                        conn.wants_write = false;
                        disarm = true;
                    }
                    close = conn.close_after_flush && conn.awaiting.is_none();
                    flushed_trace = conn.trace.take();
                }
                if let Some(mut t) = flushed_trace {
                    t.lap(stages().write);
                    self.shared.tracer.finish(t);
                }
                if disarm {
                    let _ = self.poller.set_writable(fd, token, false);
                }
                if close {
                    self.drop_conn(token);
                }
            }
            Ok(FlushState::Partial) => {
                let mut arm = false;
                if let Some(conn) = self.conn_mut(token) {
                    if !conn.wants_write {
                        conn.wants_write = true;
                        arm = true;
                    }
                }
                if arm && self.poller.set_writable(fd, token, true).is_err() {
                    self.drop_conn(token);
                }
            }
            Err(_) => self.drop_conn(token),
        }
    }

    fn drop_conn(&mut self, token: usize) {
        let Some(slot) = token
            .checked_sub(TOK_BASE)
            .and_then(|i| self.conns.get_mut(i))
        else {
            return;
        };
        let Some(mut conn) = slot.take() else { return };
        if let Some(t) = conn.trace.take() {
            // The response never fully flushed; record the spans we have.
            self.shared.tracer.finish(t);
        }
        let _ = self.poller.deregister(sock_fd(&conn.stream), token);
        self.n_conns -= 1;
        self.shared
            .registry
            .gauge("serve.conns")
            .set(self.n_conns as f64);
        if let Some(key) = conn.awaiting {
            if let Some(waiters) = self.pending.get_mut(&key) {
                // The job stays in flight; only this connection's claim on
                // the result is withdrawn. The completion removes the entry.
                waiters.retain(|w| !(w.token == token && w.serial == conn.serial));
            }
        }
        self.free.push(token);
    }

    /// Stops accepting and marks every connection close-after-flush;
    /// in-flight scores and buffered responses still complete.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self
            .poller
            .deregister(listener_fd(&self.listener), TOK_LISTENER);
        let tokens: Vec<usize> = (0..self.conns.len())
            .filter(|&i| self.conns[i].is_some())
            .map(|i| i + TOK_BASE)
            .collect();
        for token in tokens {
            if let Some(conn) = self.conn_mut(token) {
                conn.close_after_flush = true;
            }
            // Idle connections drop here; busy ones once their response
            // (and any pending score) flushes.
            self.flush_conn(token);
        }
    }

    /// Periodic deadline enforcement: read budget, write timeout,
    /// keep-alive idle.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut reject_read = Vec::new();
        let mut drop_dead = Vec::new();
        for (i, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let token = i + TOK_BASE;
            if let Some(started) = conn.request_started {
                if now.saturating_duration_since(started) > self.shared.read_cap {
                    reject_read.push(token);
                    continue;
                }
            }
            if conn.has_backlog() {
                if let Some(ws) = conn.write_started {
                    if now.saturating_duration_since(ws) > self.shared.write_timeout {
                        drop_dead.push(token);
                    }
                }
            } else if conn.awaiting.is_none()
                && now.saturating_duration_since(conn.last_active) > KEEP_ALIVE_IDLE
            {
                drop_dead.push(token);
            }
        }
        for token in reject_read {
            self.shared.registry.counter("serve.http_errors").inc();
            if let Some(conn) = self.conn_mut(token) {
                conn.push_response(
                    &Response::error(408, "request read exceeded time budget"),
                    false,
                );
                conn.request_started = None;
            }
            self.flush_conn(token);
        }
        for token in drop_dead {
            self.drop_conn(token);
        }
    }
}
