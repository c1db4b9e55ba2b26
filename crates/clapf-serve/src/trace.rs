//! Request tracing glue: the serve-side stage vocabulary and the
//! `/debug/traces` + `/debug/slow` JSON endpoints.
//!
//! The event loop samples requests through one [`Tracer`] held in
//! [`crate::server::Shared`]: head-based, deterministic, one in
//! `--trace-sample` requests (0 disables tracing — the per-request cost is
//! then a single relaxed atomic load, see the `trace` leg of
//! `results/BENCH_overhead.json`).
//! A sampled request carries a [`clapf_telemetry::Trace`] through the
//! request state machine; its stages **tile** the request's wall clock —
//! parse, route/cache, batch queue/score/wake, render, write —
//! so summing a trace's span durations recovers the request's total time.
//! Finished traces land in the tracer's lock-free ring (served by
//! `GET /debug/traces?n=`) and its slowest-K log (`GET /debug/slow`), and
//! their ids annotate `/metrics` latency buckets as OpenMetrics exemplars.

use crate::http::{Request, Response};
use clapf_telemetry::{intern_stage, JsonValue, Stage, Tracer};
use std::sync::OnceLock;

/// The interned stage vocabulary, resolved once per process.
pub(crate) struct Stages {
    /// Socket read + header parse of one request.
    pub parse: Stage,
    /// Routing work for endpoints that answer immediately.
    pub route: Stage,
    /// `/recommend` answered straight from the top-k cache.
    pub cache_hit: Stage,
    /// Cache probe that missed (ends where scoring begins).
    pub cache_lookup: Stage,
    /// Job queued until its batch formed.
    pub batch_queue: Stage,
    /// Batch scoring (`scores_into_batch` + per-job cut).
    pub batch_score: Stage,
    /// Completion published until the loop fanned it out.
    pub batch_wake: Stage,
    /// Serializing the response body.
    pub render: Stage,
    /// Writing the response to the socket.
    pub write: Stage,
    /// Field: how many jobs shared the batch (on `batch.score`).
    pub f_batch: Stage,
}

/// The process-wide stage set (stage ids are global to the interner).
pub(crate) fn stages() -> &'static Stages {
    static STAGES: OnceLock<Stages> = OnceLock::new();
    STAGES.get_or_init(|| Stages {
        parse: intern_stage("req.parse"),
        route: intern_stage("req.route"),
        cache_hit: intern_stage("cache.hit"),
        cache_lookup: intern_stage("cache.lookup"),
        batch_queue: intern_stage("batch.queue"),
        batch_score: intern_stage("batch.score"),
        batch_wake: intern_stage("batch.wake"),
        render: intern_stage("req.render"),
        write: intern_stage("req.write"),
        f_batch: intern_stage("batch_size"),
    })
}

/// `GET /debug/traces?n=` — the `n` most recent finished traces (newest
/// first, 32 when `n` is absent or not a number), read lock-free from the
/// tracer's ring. The fleet router serves its own traces through this too.
pub fn debug_traces(tracer: &Tracer, req: &Request) -> Response {
    let n = req
        .query_value("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32);
    render_traces(tracer, tracer.recent(n))
}

/// `GET /debug/slow` — the slowest traces seen since startup.
pub fn debug_slow(tracer: &Tracer) -> Response {
    render_traces(tracer, tracer.slowest())
}

fn render_traces(tracer: &Tracer, traces: Vec<clapf_telemetry::FinishedTrace>) -> Response {
    Response::json(
        200,
        JsonValue::Obj(vec![
            (
                "sample_every".into(),
                JsonValue::UInt(tracer.sample_every()),
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
