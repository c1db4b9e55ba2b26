//! Zero-dependency telemetry for the CLAPF workspace.
//!
//! The paper's interesting claims are about *dynamics* — how SGD converges
//! per epoch (Sec 4.3) and how DSS's rank-aware draws shift as the model
//! sharpens (Sec 5.2) — so this crate provides the instrumentation substrate
//! the rest of the workspace reports through:
//!
//! * [`Counter`], [`Gauge`], [`Histogram`] — lock-free atomic metrics that
//!   Hogwild worker threads update without coordination; concurrent updates
//!   are exact (every increment lands in exactly one bucket).
//! * [`Registry`] — a named collection of the above, snapshotted to a
//!   hand-rolled [`JsonValue`] for run summaries.
//! * [`Stopwatch`] / [`timed`] / [`ScopedTimer`] — wall-clock timing with a
//!   single idiom instead of scattered `Instant::now()` bookkeeping.
//! * [`JsonlSink`] — a structured event stream (one JSON object per line)
//!   for run traces: `{"ev":"epoch","ts_ms":…,…}`.
//! * [`TrainObserver`] — the hook trait the one SGD driver
//!   (`clapf_core::train`, behind CLAPF and the BPR/MPR baselines) reports
//!   through: per-epoch throughput, a running logistic-loss proxy,
//!   parameter-norm snapshots and NaN/divergence early-abort.
//!
//! Everything is hand-rolled on `std` — no external dependencies, matching
//! the offline build — and the disabled path compiles down to a dead branch
//! per SGD step (see the `observer` leg of `results/BENCH_overhead.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod observer;
mod registry;
mod sink;
mod span;
mod text;
mod timer;

pub use json::JsonValue;
pub use metrics::{Counter, Exemplar, Gauge, Histogram, HistogramSnapshot};
pub use observer::{
    Control, EpochStats, FitMeta, FitSummary, NoopObserver, PhaseTimings, TrainObserver,
};
pub use registry::Registry;
pub use sink::JsonlSink;
pub use span::{
    intern_stage, stage_name, FinishedSpan, FinishedTrace, SlowLog, SpanRecord, Stage, Trace,
    TraceId, TraceRing, Tracer, MAX_SPANS,
};
pub use timer::{per_sec, timed, ScopedTimer, Stopwatch};
