//! The sharded, replicated serving tier: a std-only router fronting N
//! `clapf-serve` replicas (ISSUE 9, DESIGN.md §16).
//!
//! The pieces, bottom-up:
//!
//! * [`ring`] — the consistent-hash ring mapping users to replica slots,
//!   with a bounded-load walk so a hot shard spills to its ring successor
//!   instead of melting.
//! * [`membership`] — lease-based membership: replicas self-register over
//!   `POST /fleet/register` and heartbeat the same call; expired leases
//!   evict the slot, re-registration re-admits it, and the ring grows as
//!   new names join (DESIGN.md §17).
//! * [`breaker`] — per-slot circuit breakers (closed → open → half-open
//!   probe), the fleet-wide token-bucket retry budget, and the salt
//!   counter for every periodic activity's deterministic jitter.
//! * [`hedge`] — hedged reads: a p99-derived delay, a race of the primary
//!   and the hedge on the worker's own connections, and a hedge budget
//!   capping duplicated work.
//! * [`client`] — the router's pooled keep-alive upstream: reconnect and
//!   failpoint logic around `clapf-serve`'s shared client, whose one-shot
//!   `call` the health checker, the rollout driver and the supervisor use.
//! * [`router`] — the router process: accepts client connections with the
//!   same read-budget/timeout discipline as `clapf-serve`, hashes
//!   `/recommend/{user}` to a replica, relays the reply byte-for-byte
//!   (router answers are bit-identical to direct replica answers), retries
//!   once through the ring on upstream failure, health-checks replicas via
//!   `/healthz`, and parks traffic during a rollout's commit window.
//! * [`rollout`] — the fleet-wide two-phase model rollout driver: every
//!   replica stages `<bundle>.next`, fingerprints are verified everywhere,
//!   traffic pauses, every replica commits (a pointer flip), traffic
//!   resumes — or any failure aborts the rollout fleet-wide and replicas
//!   restore the previous bundle.
//! * [`supervisor`] — spawns replica processes, scrapes their announce
//!   lines, restarts them with exponential backoff, and drains them on
//!   shutdown.
//!
//! Trace ids propagate across the hop: the router samples with its own
//! tracer and forwards the id in an `X-Clapf-Trace` header, which the
//! replica adopts — one id, two `/debug/traces` rings, end to end.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod client;
pub mod hedge;
pub mod membership;
pub mod ring;
pub mod rollout;
pub mod router;
pub mod supervisor;

pub use breaker::{Admission, Breaker, BreakerConfig, BreakerState, RetryBudget};
pub use client::Upstream;
pub use hedge::{HedgePolicy, LatencyWindow};
pub use membership::{LeaseView, Membership, Registered, SlotState};
pub use ring::Ring;
pub use rollout::{rollout, FleetSpec, ReplicaSpec, RolloutError, RolloutReport};
pub use router::{start_router, RouterConfig, RouterError, RouterHandle};
pub use supervisor::{Backoff, Replica, ReplicaConfig, SupervisorError};
