//! Library backing the `clapf` command-line tool.
//!
//! Three subcommands cover the adoption path end to end:
//!
//! * `clapf generate` — write a synthetic implicit-feedback dataset (one of
//!   the paper's six worlds, optionally shrunk) as a CSV the other commands
//!   and any external tool can read.
//! * `clapf fit` — load a ratings file (CSV / `u.data` / `ratings.dat`),
//!   binarize it with the paper's `rating > 3` rule, hold out a split,
//!   train BPR or CLAPF(-MAP/-MRR, optionally with DSS), report the Sec 6.2
//!   metrics, and save the model bundle (a binary model image).
//! * `clapf recommend` — load a bundle and print top-k recommendations for
//!   a raw user id, excluding the items the user was trained on.
//! * `clapf serve` — serve a bundle over HTTP (`clapf-serve`: worker pool,
//!   generation-stamped top-k cache, hot-swap on `POST /reload` or
//!   `--watch`).
//! * `clapf trace` — validate a `--metrics-out` JSONL run trace and
//!   summarize its event kinds.
//!
//! Argument parsing is hand-rolled (the workspace deliberately avoids a CLI
//! dependency): each subcommand declares one flag table ([`flags`]) that
//! parses, checks, rejects and documents its flags; [`Command::parse`] is
//! fully unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod bundle;
pub mod flags;
pub mod run;
pub mod telemetry;

pub use args::{Command, FitArgs, GenerateArgs, LogLevel, RecommendArgs, ServeArgs, TraceArgs};
pub use bundle::{BundleError, ModelBundle};
pub use telemetry::CliObserver;
