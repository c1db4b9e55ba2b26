//! Online recommendation serving for CLAPF models.
//!
//! This crate turns a saved [`ModelBundle`] into a network service without
//! adding a single external dependency: a hand-rolled HTTP/1.1 subset over
//! `std::net`, a sharded generation-stamped top-k cache, and atomic model
//! hot-swap (file watcher or `POST /reload`). One transport serves every
//! route: an event-driven readiness loop (epoll on Linux via a std-only
//! FFI, a portable scan poller elsewhere) that owns thousands of
//! keep-alive connections on one thread and scores concurrent cache
//! misses in cross-request micro-batches ([`transport`], [`batch`]).
//! The same HTTP module holds the client half: [`ResponseParser`], and the
//! blocking [`Conn`] / [`call`] built on it, which the fleet router, the
//! heartbeat, the bench harness and the tests all read responses with.
//!
//! Endpoints:
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /recommend/{user}?k=N` | Top-k unseen items for a raw user id, JSON |
//! | `GET /healthz` | Liveness + model generation + bundle fingerprint |
//! | `GET /metrics` | Prometheus text dump of the telemetry registry |
//! | `GET /debug/traces?n=N` | The N most recent sampled request traces, JSON |
//! | `GET /debug/slow` | The slowest sampled request traces seen, JSON |
//! | `GET /bundle/fingerprint` | Live + staged bundle fingerprints, JSON |
//! | `POST /reload` | Hot-swap to the bundle currently on disk |
//! | `POST /bundle/stage` | Load + validate `<bundle>.next` off to the side |
//! | `POST /bundle/commit?fingerprint=H` | Flip to the staged bundle (fleet phase 2) |
//! | `POST /bundle/abort?fingerprint=H` | Drop staged; revert if `H` is live |
//! | `POST /shutdown` | Graceful drain-and-stop |
//! | `POST /fault/arm?point=…` | Arm a failpoint (only with [`ServeConfig::fault_control`]) |
//! | `POST /fault/reset` | Disarm every failpoint (only with [`ServeConfig::fault_control`]) |
//!
//! A replica configured with [`ServeConfig::register`] additionally runs a
//! heartbeat thread that announces itself to a fleet router over
//! `POST /fleet/register` and keeps renewing its membership lease — the
//! replica half of the fleet's lease-based membership (see
//! [`RegisterConfig`]).
//!
//! The `/bundle/*` endpoints are the replica half of the **fleet-wide
//! two-phase rollout** the `clapf-fleet` crate drives: every replica
//! stages, fingerprints are verified everywhere, then every replica
//! commits (a pointer flip) — or the driver aborts and replicas restore
//! the previous bundle. Requests carrying an `X-Clapf-Trace` header adopt
//! the router's trace id, so one id follows a request across the hop.
//!
//! The serving path reuses the exact offline machinery — scoring through
//! [`clapf_metrics::top_k_for_user`] — so a served list is bit-identical to
//! what the evaluator would rank for the same user (the integration tests
//! assert this). Consistency under hot-swap is by construction, not by
//! locking the request path: see [`model`] for the pin-then-swap protocol
//! and [`cache`] for generation stamping.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod bundle;
mod cache;
mod client;
mod conn;
mod http;
mod model;
mod poller;
mod register;
mod server;
mod trace;
mod transport;
mod watch;

pub use bundle::{fingerprint64, BundleError, ModelBundle};
pub use cache::TopKCache;
pub use client::{call, Conn};
pub use http::{
    parse_request, parse_request_deadline, parse_request_deadline_timed, Feed, FeedParser, Method,
    ParseError, Reply, Request, Response, ResponseFeed, ResponseParser, MAX_RESPONSE_BODY,
};
pub use model::{ModelSlot, ServingModel};
pub use register::RegisterConfig;
pub use server::{start, ServeConfig, ServeError, ServerHandle, Transport};
