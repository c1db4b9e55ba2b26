//! The `clapf` subcommands: one flag table each, parsed, checked and
//! documented through [`crate::flags`], plus the rules that span flags.

use crate::flags::{self, Flag, Kind, Value};
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::path::PathBuf;

/// Which model family `fit` trains.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// BPR's criterion, trained as CLAPF at λ = 0 (whose steps add only
    /// weight decay on the second observed item).
    Bpr,
    /// CLAPF-MAP.
    ClapfMap,
    /// CLAPF-MRR.
    ClapfMrr,
}

impl ModelKind {
    /// `--model`'s words, in the order of [`ModelKind::ALL`].
    const NAMES: &'static [&'static str] = &["bpr", "clapf-map", "clapf-mrr"];
    const ALL: [ModelKind; 3] = [ModelKind::Bpr, ModelKind::ClapfMap, ModelKind::ClapfMrr];
}

/// `clapf generate` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateArgs {
    /// Named world (`ml100k`, `ml1m`, `usertag`, `ml20m`, `flixter`,
    /// `netflix`).
    pub dataset: String,
    /// Divide users/pairs by this factor (items by its square root).
    pub shrink: u32,
    /// Output CSV path.
    pub out: PathBuf,
    /// Generation seed.
    pub seed: u64,
}

/// Verbosity of the CLI's human-readable output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LogLevel {
    /// Only results and errors.
    Quiet,
    /// The default narrative (load/train/eval lines).
    Info,
    /// Info plus per-epoch training statistics.
    Debug,
}

impl LogLevel {
    /// `--log-level`'s words, in the order of [`LogLevel::ALL`].
    const NAMES: &'static [&'static str] = &["quiet", "info", "debug"];
    const ALL: [LogLevel; 3] = [LogLevel::Quiet, LogLevel::Info, LogLevel::Debug];
}

/// `clapf fit` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct FitArgs {
    /// Ratings file to load.
    pub data: PathBuf,
    /// Model family.
    pub model: ModelKind,
    /// CLAPF tradeoff λ.
    pub lambda: f32,
    /// Use the DSS sampler.
    pub dss: bool,
    /// Latent dimension.
    pub dim: usize,
    /// SGD steps (0 = auto).
    pub iterations: usize,
    /// Fraction of pairs held out for evaluation (0 disables evaluation).
    pub holdout: f64,
    /// Seed for split and training.
    pub seed: u64,
    /// Training worker threads (1 = serial, 0 = all cores).
    pub threads: usize,
    /// Where to save the model bundle (optional).
    pub save: Option<PathBuf>,
    /// Where to stream the JSONL run trace (optional).
    pub metrics_out: Option<PathBuf>,
    /// Output verbosity.
    pub log_level: LogLevel,
    /// Directory for crash-safe checkpoints (enables the resumable path;
    /// requires the serial trainer, `--threads 1`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs.
    pub checkpoint_every: usize,
    /// Resume from the newest matching checkpoint instead of starting fresh.
    pub resume: bool,
}

/// `clapf trace` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    /// JSONL run trace to validate and summarize.
    pub file: PathBuf,
}

/// `clapf recommend` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendArgs {
    /// Saved model bundle.
    pub load: PathBuf,
    /// Raw user id (as it appeared in the ratings file).
    pub user: String,
    /// List length.
    pub k: usize,
}

/// `clapf serve` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeArgs {
    /// Saved model bundle to serve (and hot-swap on change).
    pub load: PathBuf,
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Scorer threads computing `/recommend` cache misses.
    pub workers: usize,
    /// Top-k cache capacity in entries (0 disables caching).
    pub cache: usize,
    /// Watch the bundle file and hot-swap on change, polling this often
    /// (seconds). `None` reloads only on `POST /reload`.
    pub watch_secs: Option<f64>,
    /// Most `/recommend` misses scored in one micro-batch.
    pub batch_max: usize,
    /// Trace one in this many `/recommend` requests (0 disables tracing).
    /// Sampled requests record a per-stage span breakdown, visible at
    /// `GET /debug/traces` and `GET /debug/slow`.
    pub trace_sample: u64,
    /// Fleet router (`host:port`) to register with and heartbeat a
    /// membership lease to. `None` serves standalone.
    pub register: Option<String>,
    /// Member name used when registering (defaults to `replica-{pid}`).
    pub name: Option<String>,
    /// Heartbeat period in milliseconds (keep well below the router's
    /// lease TTL).
    pub heartbeat_ms: u64,
    /// Expose `POST /fault/arm` / `POST /fault/reset` for chaos drivers.
    pub fault_control: bool,
}

/// `clapf fleet serve` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetServeArgs {
    /// Seed model bundle; each replica gets its own copy under `--dir`.
    pub load: PathBuf,
    /// Number of replica processes to supervise.
    pub replicas: usize,
    /// Router bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Working directory: per-replica bundle copies and `fleet.json`.
    pub dir: PathBuf,
    /// Router worker threads (each owns one pooled connection per replica).
    pub workers: usize,
    /// Trace one in this many proxied requests (0 disables tracing).
    pub trace_sample: u64,
    /// Membership lease TTL in milliseconds: a replica whose heartbeats
    /// stop this long is evicted from the ring.
    pub lease_ttl_ms: u64,
    /// Start replicas with `--fault-control` so a chaos driver can arm
    /// their failpoints over HTTP.
    pub fault_control: bool,
}

/// `clapf fleet rollout` arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRolloutArgs {
    /// The `fleet.json` written by `clapf fleet serve`.
    pub fleet: PathBuf,
    /// The candidate bundle to roll out fleet-wide.
    pub bundle: PathBuf,
}

/// A parsed `clapf` invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Generate synthetic data.
    Generate(GenerateArgs),
    /// Train and evaluate a model.
    Fit(FitArgs),
    /// Produce recommendations from a saved model.
    Recommend(RecommendArgs),
    /// Serve recommendations over HTTP.
    Serve(ServeArgs),
    /// Supervise a sharded replica fleet behind a consistent-hash router.
    FleetServe(FleetServeArgs),
    /// Roll a new bundle out across a running fleet, atomically.
    FleetRollout(FleetRolloutArgs),
    /// Validate and summarize a JSONL run trace.
    Trace(TraceArgs),
    /// Print usage.
    Help,
}

#[rustfmt::skip]
const GENERATE: [Flag; 4] = [
    Flag::required("--dataset", "NAME", Kind::Text, "ml100k, ml1m, usertag, ml20m, flixter or netflix"),
    Flag::defaulted("--shrink", "N", Kind::Count { min: 1, max: u32::MAX as u64, clamp: true }, "1", "divide users and pairs by N, items by √N"),
    Flag::defaulted("--seed", "N", Kind::Seed, "42", "generation seed"),
    Flag::required("--out", "data.csv", Kind::Path, "CSV to write"),
];

#[rustfmt::skip]
const FIT: [Flag; 15] = [
    Flag::required("--data", "FILE", Kind::Path, "CSV, u.data or ratings.dat; rating > 3 is a positive"),
    Flag::defaulted("--model", "", Kind::Choice(ModelKind::NAMES), "clapf-map", "model family"),
    Flag::defaulted("--lambda", "F", Kind::Float(Included(0.0), Included(1.0)), "0.3", "CLAPF's tradeoff λ"),
    Flag::switch("--dss", "draw with the Double Sampling Strategy"),
    Flag::defaulted("--dim", "N", Kind::COUNT_OR_ONE, "20", "latent dimension"),
    Flag::defaulted("--iterations", "N", Kind::COUNT, "0", "SGD steps, 0 = auto"),
    Flag::defaulted("--holdout", "F", Kind::Float(Included(0.0), Excluded(1.0)), "0.5", "held-out share of pairs, 0 skips eval"),
    Flag::defaulted("--seed", "N", Kind::Seed, "42", "seed for the split and training"),
    Flag::defaulted("--threads", "N", Kind::COUNT, "1", "training threads, 0 = all cores"),
    Flag::optional("--save", "model.json", Kind::Path, "save the model bundle"),
    Flag::optional("--metrics-out", "run.jsonl", Kind::Path, "stream the JSONL run trace"),
    Flag::defaulted("--log-level", "", Kind::Choice(LogLevel::NAMES), "info", "output verbosity"),
    Flag::optional("--checkpoint-dir", "DIR", Kind::Path, "write crash-safe checkpoints here"),
    Flag::defaulted("--checkpoint-every", "N", Kind::at_least(1), "1", "checkpoint cadence in epochs"),
    Flag::switch("--resume", "resume from the newest matching checkpoint"),
];

#[rustfmt::skip]
const RECOMMEND: [Flag; 3] = [
    Flag::required("--load", "model.json", Kind::Path, "saved model bundle"),
    Flag::required("--user", "RAW_ID", Kind::Text, "user id as it appears in the ratings file"),
    Flag::defaulted("-k", "N", Kind::COUNT_OR_ONE, "10", "list length"),
];

#[rustfmt::skip]
const SERVE: [Flag; 11] = [
    Flag::required("--load", "model.json", Kind::Path, "bundle to serve and hot-swap"),
    Flag::defaulted("--addr", "HOST:PORT", Kind::Text, "127.0.0.1:7878", "bind address; port 0 picks one"),
    Flag::defaulted("--workers", "N", Kind::COUNT_OR_ONE, "4", "scorer threads"),
    Flag::defaulted("--cache", "N", Kind::COUNT, "4096", "top-k cache entries, 0 disables it"),
    Flag::optional("--watch", "SECS", Kind::Float(Excluded(0.0), Unbounded), "poll the bundle and hot-swap on change"),
    Flag::defaulted("--batch-max", "N", Kind::at_least(1), "32", "most misses scored in one batch"),
    Flag::defaulted("--trace-sample", "N", Kind::COUNT, "0", "trace one in N requests, 0 = off"),
    Flag::optional("--register", "HOST:PORT", Kind::Text, "fleet router to join"),
    Flag::optional("--name", "NAME", Kind::Text, "member name; replica-{pid} if unset"),
    Flag::defaulted("--heartbeat-ms", "N", Kind::at_least(1), "1000", "lease heartbeat period"),
    Flag::switch("--fault-control", "expose POST /fault/arm and /fault/reset"),
];

#[rustfmt::skip]
const FLEET_SERVE: [Flag; 8] = [
    Flag::required("--load", "model.json", Kind::Path, "bundle every replica starts from"),
    Flag::defaulted("--replicas", "N", Kind::at_least(1), "2", "replica processes"),
    Flag::defaulted("--addr", "HOST:PORT", Kind::Text, "127.0.0.1:7900", "router bind address"),
    Flag::defaulted("--dir", "DIR", Kind::Path, "clapf-fleet", "replica bundles and fleet.json"),
    Flag::defaulted("--workers", "N", Kind::COUNT_OR_ONE, "4", "router worker threads"),
    Flag::defaulted("--trace-sample", "N", Kind::COUNT, "0", "trace one in N requests, 0 = off"),
    Flag::defaulted("--lease-ttl-ms", "N", Kind::at_least(100), "3000", "membership lease TTL"),
    Flag::switch("--fault-control", "start replicas with --fault-control"),
];

#[rustfmt::skip]
const FLEET_ROLLOUT: [Flag; 2] = [
    Flag::required("--bundle", "new.json", Kind::Path, "candidate bundle"),
    Flag::defaulted("--fleet", "FILE", Kind::Path, "clapf-fleet/fleet.json", "written by fleet serve"),
];

#[rustfmt::skip]
const TRACE: [Flag; 1] = [Flag::required("--file", "run.jsonl", Kind::Path, "JSONL run trace to check")];

const FIT_NOTES: &str = "  (clapf train is an alias for clapf fit)
  --threads N trains with N lock-free (Hogwild) workers; 1 (the default)
  is the exactly-reproducible serial path, 0 uses all cores.
  --metrics-out streams a structured JSONL run trace (fit_start, epoch,
  fit_end, eval, summary events); --log-level debug echoes per-epoch
  statistics, quiet keeps only results.
  --checkpoint-dir makes training crash-safe: the model, RNG state and
  epoch index are written atomically to DIR every --checkpoint-every
  epochs (default 1). --resume picks up from the newest matching
  checkpoint; with or without an interruption the result is bit-identical
  to the uninterrupted run. Requires --threads 1 (the replayable path).
  Divergence rolls back to the last checkpoint with a shrunk learning
  rate instead of aborting.
";

const SERVE_NOTES: &str = "  serve answers GET /recommend/{user}?k=N, /healthz and /metrics, and
  hot-swaps the bundle on POST /reload (or automatically with --watch).
  --cache sizes the top-k result cache (0 disables it); POST /shutdown
  drains in-flight requests and stops. Every connection is served from
  one readiness loop (epoll on Linux), and concurrent cache misses are
  scored in micro-batches of up to --batch-max users (default 32): a
  scorer takes the misses queued when it wakes and never waits for more;
  --workers (default 4) sizes the scorer pool. Past 10000 open
  connections or 4096 queued misses, requests are shed with a typed
  503 + Retry-After.
  --trace-sample N traces one in N /recommend requests (0, the default,
  disables tracing): sampled requests record per-stage spans (parse,
  cache, queue, score, render, write), exposed as JSON at
  GET /debug/traces?n=K (the K most recent) and GET /debug/slow (the
  slowest seen), and as exemplars on /metrics latency buckets.
  --register HOST:PORT joins a fleet: the replica announces itself to the
  router's POST /fleet/register endpoint under --name (default
  replica-{pid}) and renews its membership lease every --heartbeat-ms
  (default 1000). --fault-control exposes POST /fault/arm and
  POST /fault/reset so a chaos driver can inject failures over HTTP —
  test harnesses only.
";

const FLEET_SERVE_NOTES: &str =
    "  fleet serve spawns --replicas (default 2) `clapf serve` child processes
  on ephemeral ports, each with its own copy of the bundle under --dir,
  and fronts them with a consistent-hash router: users map to replicas by
  bounded-load ring hashing, dead replicas fail over within one health
  check and re-admit automatically, and a crashed replica is restarted
  with exponential backoff (its slot keeps its ring position). Replicas
  self-register with the router and heartbeat membership leases of
  --lease-ttl-ms (default 3000); a replica whose heartbeats stop is
  evicted from the ring when its lease expires and re-admitted by its
  next registration. --fault-control starts every replica with its
  HTTP fault endpoints armed-able (chaos harnesses only). The fleet
  layout is written to --dir/fleet.json. POST /shutdown on the router
  drains the whole fleet.
";

const FLEET_ROLLOUT_NOTES: &str =
    "  fleet rollout reads fleet.json and flips every replica to --bundle in
  two phases: stage + fingerprint-verify everywhere first, then a paused
  atomic commit — clients never see two model generations, and a failed
  commit aborts with the old generation restored fleet-wide.
";

/// Every subcommand as `clapf help` lists it: its words, flag table and
/// notes.
const COMMANDS: [(&str, &[Flag], &str); 7] = [
    ("generate", &GENERATE, ""),
    ("fit", &FIT, FIT_NOTES),
    ("recommend", &RECOMMEND, ""),
    ("serve", &SERVE, SERVE_NOTES),
    ("fleet serve", &FLEET_SERVE, FLEET_SERVE_NOTES),
    ("fleet rollout", &FLEET_ROLLOUT, FLEET_ROLLOUT_NOTES),
    ("trace", &TRACE, ""),
];

/// Usage text shown by `clapf help` and on parse errors: each
/// subcommand's synopsis and flags, rendered from its table, then its
/// notes.
pub fn usage() -> String {
    let mut s = String::from("clapf — Collaborative List-and-Pairwise Filtering\n\nUSAGE:\n");
    for (words, table, notes) in COMMANDS {
        s += &flags::synopsis(&format!("clapf {words}"), table);
        s += &flags::describe(table);
        s += notes;
        s += "\n";
    }
    s += "  clapf help

Every subcommand rejects a flag it does not list above (exit 2).

EXIT CODES:
  0 success   2 configuration/usage error   3 I/O error   4 training abort
";
    s
}

impl GenerateArgs {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let [dataset, shrink, seed, out] = flags::parse_all("clapf generate", &GENERATE, argv)?;
        Ok(GenerateArgs {
            dataset: dataset.text().to_lowercase(),
            shrink: u32::try_from(shrink.int()).expect("its kind caps it at u32::MAX"),
            out: out.path(),
            seed: seed.int(),
        })
    }
}

impl FitArgs {
    fn parse(sub: &str, argv: &[String]) -> Result<Self, String> {
        let [data, model, lambda, dss, dim, iterations, holdout, seed, threads, save, metrics_out, log_level, checkpoint_dir, checkpoint_every, resume] =
            flags::parse_all(&format!("clapf {sub}"), &FIT, argv)?;
        if checkpoint_dir.at.is_none() && (resume.on() || checkpoint_every.at.is_some()) {
            return Err(format!(
                "{}/{} require {}",
                resume.name, checkpoint_every.name, checkpoint_dir.name
            ));
        }
        Ok(FitArgs {
            data: data.path(),
            model: ModelKind::ALL[model.choice()],
            lambda: lambda.float() as f32,
            dss: dss.on(),
            dim: dim.count(),
            iterations: iterations.count(),
            holdout: holdout.float(),
            seed: seed.int(),
            threads: threads.count(),
            save: save.opt_path(),
            metrics_out: metrics_out.opt_path(),
            log_level: LogLevel::ALL[log_level.choice()],
            checkpoint_dir: checkpoint_dir.opt_path(),
            checkpoint_every: checkpoint_every.count(),
            resume: resume.on(),
        })
    }
}

impl ServeArgs {
    /// `clapf serve --load {load}` with every other flag at its default.
    pub fn new(load: PathBuf) -> ServeArgs {
        let argv = [SERVE[0].name.to_string(), load.display().to_string()];
        Self::parse(&argv).expect("a bundle path is all serve requires")
    }

    fn parse(argv: &[String]) -> Result<Self, String> {
        let [load, addr, workers, cache, watch, batch_max, trace_sample, register, name, heartbeat_ms, fault_control] =
            flags::parse_all("clapf serve", &SERVE, argv)?;
        let member = name.opt_text();
        if let Some(n) = &member {
            if n.is_empty()
                || !n
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c))
            {
                return Err(format!(
                    "{} must be non-empty and use only letters, digits, '-', '_', '.', got {n:?}",
                    name.name
                ));
            }
        }
        Ok(ServeArgs {
            load: load.path(),
            addr: addr.text(),
            workers: workers.count(),
            cache: cache.count(),
            watch_secs: watch.opt_float(),
            batch_max: batch_max.count(),
            trace_sample: trace_sample.int(),
            register: register.opt_text(),
            name: member,
            heartbeat_ms: heartbeat_ms.int(),
            fault_control: fault_control.on(),
        })
    }

    /// The `clapf serve …` argv that parses back to these arguments: how
    /// `fleet serve` starts a replica. Flags at their default are left out.
    pub fn to_argv(&self) -> Vec<String> {
        let text = |s: &str| Value::Text(s.to_string());
        let opt = |s: &Option<String>| s.as_deref().map_or(Value::Absent, text);
        let values = [
            text(&self.load.display().to_string()),
            text(&self.addr),
            Value::Int(self.workers as u64),
            Value::Int(self.cache as u64),
            self.watch_secs.map_or(Value::Absent, Value::Float),
            Value::Int(self.batch_max as u64),
            Value::Int(self.trace_sample),
            opt(&self.register),
            opt(&self.name),
            Value::Int(self.heartbeat_ms),
            Value::Switch(self.fault_control),
        ];
        let mut argv = vec!["serve".to_string()];
        argv.extend(flags::render(&SERVE, &values));
        argv
    }
}

impl Command {
    /// Parses an argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let Some((sub, rest)) = args.split_first() else {
            return Ok(Command::Help);
        };
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "generate" => GenerateArgs::parse(rest).map(Command::Generate),
            "fit" | "train" => FitArgs::parse(sub, rest).map(Command::Fit),
            "trace" => {
                let [file] = flags::parse_all("clapf trace", &TRACE, rest)?;
                Ok(Command::Trace(TraceArgs { file: file.path() }))
            }
            "recommend" => {
                let [load, user, k] = flags::parse_all("clapf recommend", &RECOMMEND, rest)?;
                Ok(Command::Recommend(RecommendArgs {
                    load: load.path(),
                    user: user.text(),
                    k: k.count(),
                }))
            }
            "serve" => ServeArgs::parse(rest).map(Command::Serve),
            "fleet" => match rest.split_first() {
                Some((s, argv)) if s == "serve" => {
                    let [load, replicas, addr, dir, workers, trace_sample, lease_ttl_ms, fault_control] =
                        flags::parse_all("clapf fleet serve", &FLEET_SERVE, argv)?;
                    Ok(Command::FleetServe(FleetServeArgs {
                        load: load.path(),
                        replicas: replicas.count(),
                        addr: addr.text(),
                        dir: dir.path(),
                        workers: workers.count(),
                        trace_sample: trace_sample.int(),
                        lease_ttl_ms: lease_ttl_ms.int(),
                        fault_control: fault_control.on(),
                    }))
                }
                Some((s, argv)) if s == "rollout" => {
                    let [bundle, fleet] =
                        flags::parse_all("clapf fleet rollout", &FLEET_ROLLOUT, argv)?;
                    Ok(Command::FleetRollout(FleetRolloutArgs {
                        fleet: fleet.path(),
                        bundle: bundle.path(),
                    }))
                }
                other => Err(format!(
                    "fleet takes serve | rollout, got {:?}\n{}",
                    other.map(|(s, _)| s),
                    usage()
                )),
            },
            other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
        assert_eq!(Command::parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(Command::parse(&args(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_parses() {
        let c = Command::parse(&args(&[
            "generate", "--dataset", "ML100K", "--shrink", "8", "--out", "x.csv",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Generate(GenerateArgs {
                dataset: "ml100k".into(),
                shrink: 8,
                out: PathBuf::from("x.csv"),
                seed: 42,
            })
        );
    }

    #[test]
    fn generate_requires_dataset_and_out() {
        assert!(Command::parse(&args(&["generate", "--out", "x.csv"])).is_err());
        assert!(Command::parse(&args(&["generate", "--dataset", "ml1m"])).is_err());
    }

    #[test]
    fn fit_defaults() {
        let c = Command::parse(&args(&["fit", "--data", "u.data"])).unwrap();
        match c {
            Command::Fit(f) => {
                assert_eq!(f.model, ModelKind::ClapfMap);
                assert_eq!(f.lambda, 0.3);
                assert!(!f.dss);
                assert_eq!(f.dim, 20);
                assert_eq!(f.iterations, 0);
                assert_eq!(f.holdout, 0.5);
                assert_eq!(f.threads, 1);
                assert!(f.save.is_none());
                assert!(f.metrics_out.is_none());
                assert_eq!(f.log_level, LogLevel::Info);
                assert!(f.checkpoint_dir.is_none());
                assert_eq!(f.checkpoint_every, 1);
                assert!(!f.resume);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn train_is_an_alias_for_fit() {
        let a = Command::parse(&args(&["fit", "--data", "u.data"])).unwrap();
        let b = Command::parse(&args(&["train", "--data", "u.data"])).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_checkpoint_flags() {
        let c = Command::parse(&args(&[
            "train", "--data", "u.data", "--checkpoint-dir", "ckpts", "--checkpoint-every",
            "3", "--resume",
        ]))
        .unwrap();
        match c {
            Command::Fit(f) => {
                assert_eq!(f.checkpoint_dir, Some(PathBuf::from("ckpts")));
                assert_eq!(f.checkpoint_every, 3);
                assert!(f.resume);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_flags_require_a_dir_and_a_positive_cadence() {
        let err = Command::parse(&args(&["fit", "--data", "x", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err =
            Command::parse(&args(&["fit", "--data", "x", "--checkpoint-every", "2"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = Command::parse(&args(&[
            "fit", "--data", "x", "--checkpoint-dir", "d", "--checkpoint-every", "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn fit_full_flags() {
        let c = Command::parse(&args(&[
            "fit", "--data", "r.csv", "--model", "clapf-mrr", "--lambda", "0.2", "--dss",
            "--dim", "16", "--iterations", "50000", "--holdout", "0.3", "--seed", "7",
            "--threads", "4", "--save", "m.json", "--metrics-out", "run.jsonl",
            "--log-level", "debug",
        ]))
        .unwrap();
        match c {
            Command::Fit(f) => {
                assert_eq!(f.model, ModelKind::ClapfMrr);
                assert_eq!(f.lambda, 0.2);
                assert!(f.dss);
                assert_eq!(f.dim, 16);
                assert_eq!(f.iterations, 50_000);
                assert_eq!(f.holdout, 0.3);
                assert_eq!(f.seed, 7);
                assert_eq!(f.threads, 4);
                assert_eq!(f.save, Some(PathBuf::from("m.json")));
                assert_eq!(f.metrics_out, Some(PathBuf::from("run.jsonl")));
                assert_eq!(f.log_level, LogLevel::Debug);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fit_rejects_unknown_flags_by_name() {
        for sub in ["fit", "train"] {
            for (extra, named) in [
                (&["--iterationz", "10", "--dimm", "4"][..], "--iterationz"),
                (&["--iterations", "10", "--dimm", "4"], "--dimm"),
                (&["--dss", "--threds", "2"], "--threds"),
                (&["stray"], "stray"),
            ] {
                let mut argv = vec![sub, "--data", "d.csv"];
                argv.extend_from_slice(extra);
                let err = Command::parse(&args(&argv)).unwrap_err();
                assert!(err.contains(&format!("{named:?}")), "{sub} {extra:?}: {err}");
            }
        }
    }

    #[test]
    fn every_fit_flag_still_parses() {
        let c = Command::parse(&args(&[
            "train", "--data", "r.csv", "--model", "bpr", "--lambda", "0.1", "--dss", "--dim",
            "3", "--iterations", "900", "--holdout", "0.2", "--seed", "5", "--threads", "2",
            "--save", "m.json", "--metrics-out", "t.jsonl", "--log-level", "quiet",
            "--checkpoint-dir", "ck", "--checkpoint-every", "3", "--resume",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Fit(FitArgs {
                data: PathBuf::from("r.csv"),
                model: ModelKind::Bpr,
                lambda: 0.1,
                dss: true,
                dim: 3,
                iterations: 900,
                holdout: 0.2,
                seed: 5,
                threads: 2,
                save: Some(PathBuf::from("m.json")),
                metrics_out: Some(PathBuf::from("t.jsonl")),
                log_level: LogLevel::Quiet,
                checkpoint_dir: Some(PathBuf::from("ck")),
                checkpoint_every: 3,
                resume: true,
            })
        );
    }

    #[test]
    fn fit_rejects_bad_log_level() {
        let err =
            Command::parse(&args(&["fit", "--data", "x", "--log-level", "loud"])).unwrap_err();
        assert!(err.contains("log level"));
    }

    #[test]
    fn trace_parses_and_requires_file() {
        let c = Command::parse(&args(&["trace", "--file", "run.jsonl"])).unwrap();
        assert_eq!(
            c,
            Command::Trace(TraceArgs {
                file: PathBuf::from("run.jsonl"),
            })
        );
        assert!(Command::parse(&args(&["trace"])).is_err());
    }

    #[test]
    fn fit_validates_ranges() {
        assert!(Command::parse(&args(&["fit", "--data", "x", "--lambda", "1.5"])).is_err());
        assert!(Command::parse(&args(&["fit", "--data", "x", "--holdout", "1.0"])).is_err());
        assert!(Command::parse(&args(&["fit", "--data", "x", "--model", "ncf"])).is_err());
    }

    #[test]
    fn recommend_parses() {
        let c = Command::parse(&args(&[
            "recommend", "--load", "m.json", "--user", "42", "-k", "5",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Recommend(RecommendArgs {
                load: PathBuf::from("m.json"),
                user: "42".into(),
                k: 5,
            })
        );
    }

    #[test]
    fn serve_defaults_and_full_flags() {
        let c = Command::parse(&args(&["serve", "--load", "m.json"])).unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
                load: PathBuf::from("m.json"),
                addr: "127.0.0.1:7878".into(),
                workers: 4,
                cache: 4096,
                watch_secs: None,
                batch_max: 32,
                trace_sample: 0,
                register: None,
                name: None,
                heartbeat_ms: 1000,
                fault_control: false,
            })
        );
        let c = Command::parse(&args(&[
            "serve", "--load", "m.json", "--addr", "0.0.0.0:9000", "--workers", "8",
            "--cache", "0", "--watch", "2.5", "--batch-max", "8",
            "--trace-sample", "64", "--register", "127.0.0.1:7900", "--name", "replica-3",
            "--heartbeat-ms", "500", "--fault-control",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve(ServeArgs {
                load: PathBuf::from("m.json"),
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                cache: 0,
                watch_secs: Some(2.5),
                batch_max: 8,
                trace_sample: 64,
                register: Some("127.0.0.1:7900".into()),
                name: Some("replica-3".into()),
                heartbeat_ms: 500,
                fault_control: true,
            })
        );
    }

    #[test]
    fn serve_member_name_validates() {
        let err = Command::parse(&args(&["serve", "--load", "m.json", "--name", "no spaces"]))
            .unwrap_err();
        assert!(err.contains("--name"), "{err}");
        let err =
            Command::parse(&args(&["serve", "--load", "m.json", "--heartbeat-ms", "0"]))
                .unwrap_err();
        assert!(err.contains("--heartbeat-ms"), "{err}");
    }

    #[test]
    fn serve_trace_sample_validates() {
        let err = Command::parse(&args(&["serve", "--load", "m.json", "--trace-sample", "-1"]))
            .unwrap_err();
        assert!(err.contains("--trace-sample"), "{err}");
    }

    #[test]
    fn serve_rejects_unknown_and_removed_flags() {
        for (extra, named) in [
            (&["--event-loop", "off"][..], "--event-loop"),
            (&["--event-loop", "on"], "--event-loop"),
            (&["--queue", "1"], "--queue"),
            (&["--deadline-ms", "50"], "--deadline-ms"),
            (&["--batch-hold-us", "100"], "--batch-hold-us"),
            (&["--wokers", "2"], "--wokers"),
            (&["--fault-control", "--bogus"], "--bogus"),
            (&["stray"], "stray"),
        ] {
            let mut argv = vec!["serve", "--load", "m.json"];
            argv.extend_from_slice(extra);
            let err = Command::parse(&args(&argv)).unwrap_err();
            assert!(err.contains(named), "{extra:?}: {err}");
        }
        // A flag's value is skipped, not rejected as a stray argument.
        assert!(Command::parse(&args(&["serve", "--load", "m.json", "--name", "x"])).is_ok());
        let err = Command::parse(&args(&["serve", "--load", "m.json", "--batch-max", "0"]))
            .unwrap_err();
        assert!(err.contains("--batch-max"), "{err}");
    }

    #[test]
    fn serve_counts_reject_negative_and_fractional_values() {
        for (flag, v) in [
            ("--cache", "-5"),
            ("--cache", "2.5"),
            ("--workers", "-1"),
            ("--workers", "1.5"),
        ] {
            let err = Command::parse(&args(&["serve", "--load", "m.json", flag, v])).unwrap_err();
            assert!(err.contains(flag) && err.contains(v), "{flag} {v}: {err}");
        }
        match Command::parse(&args(&["serve", "--load", "m.json", "--cache", "0"])).unwrap() {
            Command::Serve(a) => assert_eq!(a.cache, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_requires_load_and_validates_watch() {
        assert!(Command::parse(&args(&["serve"])).is_err());
        let err =
            Command::parse(&args(&["serve", "--load", "m.json", "--watch", "0"])).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
    }

    #[test]
    fn fleet_serve_defaults_and_full_flags() {
        let c = Command::parse(&args(&["fleet", "serve", "--load", "m.json"])).unwrap();
        assert_eq!(
            c,
            Command::FleetServe(FleetServeArgs {
                load: PathBuf::from("m.json"),
                replicas: 2,
                addr: "127.0.0.1:7900".into(),
                dir: PathBuf::from("clapf-fleet"),
                workers: 4,
                trace_sample: 0,
                lease_ttl_ms: 3000,
                fault_control: false,
            })
        );
        let c = Command::parse(&args(&[
            "fleet", "serve", "--load", "m.json", "--replicas", "3", "--addr",
            "127.0.0.1:0", "--dir", "run/fleet", "--workers", "8", "--trace-sample", "16",
            "--lease-ttl-ms", "800", "--fault-control",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::FleetServe(FleetServeArgs {
                load: PathBuf::from("m.json"),
                replicas: 3,
                addr: "127.0.0.1:0".into(),
                dir: PathBuf::from("run/fleet"),
                workers: 8,
                trace_sample: 16,
                lease_ttl_ms: 800,
                fault_control: true,
            })
        );
    }

    #[test]
    fn fleet_serve_validates() {
        assert!(Command::parse(&args(&["fleet", "serve"])).is_err());
        let err = Command::parse(&args(&["fleet", "serve", "--load", "m.json", "--replicas", "0"]))
            .unwrap_err();
        assert!(err.contains("--replicas"), "{err}");
    }

    #[test]
    fn fleet_rollout_parses_and_requires_bundle() {
        let c = Command::parse(&args(&["fleet", "rollout", "--bundle", "new.json"])).unwrap();
        assert_eq!(
            c,
            Command::FleetRollout(FleetRolloutArgs {
                fleet: PathBuf::from("clapf-fleet/fleet.json"),
                bundle: PathBuf::from("new.json"),
            })
        );
        let c = Command::parse(&args(&[
            "fleet", "rollout", "--bundle", "new.json", "--fleet", "f.json",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::FleetRollout(FleetRolloutArgs {
                fleet: PathBuf::from("f.json"),
                bundle: PathBuf::from("new.json"),
            })
        );
        assert!(Command::parse(&args(&["fleet", "rollout"])).is_err());
    }

    #[test]
    fn fleet_rejects_unknown_subcommand() {
        let err = Command::parse(&args(&["fleet", "restart"])).unwrap_err();
        assert!(err.contains("serve | rollout"), "{err}");
        let err = Command::parse(&args(&["fleet"])).unwrap_err();
        assert!(err.contains("serve | rollout"), "{err}");
    }

    /// Every subcommand: the argv prefix that selects it with its required
    /// flags, then each optional flag with a valid value.
    const SUBCOMMANDS: &[(&[&str], &[&[&str]])] = &[
        (
            &["generate", "--dataset", "ml100k", "--out", "x.csv"],
            &[&["--shrink", "4"], &["--seed", "3"]],
        ),
        (
            &["fit", "--data", "d.csv"],
            &[
                &["--model", "bpr"],
                &["--lambda", "0.5"],
                &["--dss"],
                &["--dim", "4"],
                &["--iterations", "10"],
                &["--holdout", "0.2"],
                &["--seed", "3"],
                &["--threads", "2"],
                &["--save", "m.json"],
                &["--metrics-out", "t.jsonl"],
                &["--log-level", "quiet"],
                &["--checkpoint-dir", "ck", "--checkpoint-every", "2", "--resume"],
            ],
        ),
        (&["train", "--data", "d.csv"], &[&["--dim", "4"], &["--dss"]]),
        (&["recommend", "--load", "m.json", "--user", "7"], &[&["-k", "3"]]),
        (
            &["serve", "--load", "m.json"],
            &[
                &["--addr", "127.0.0.1:0"],
                &["--workers", "2"],
                &["--cache", "0"],
                &["--watch", "1.5"],
                &["--batch-max", "8"],
                &["--trace-sample", "4"],
                &["--register", "127.0.0.1:7900"],
                &["--name", "r1"],
                &["--heartbeat-ms", "100"],
                &["--fault-control"],
            ],
        ),
        (&["trace", "--file", "run.jsonl"], &[]),
        (
            &["fleet", "serve", "--load", "m.json"],
            &[
                &["--replicas", "3"],
                &["--addr", "127.0.0.1:0"],
                &["--dir", "f"],
                &["--workers", "2"],
                &["--trace-sample", "4"],
                &["--lease-ttl-ms", "500"],
                &["--fault-control"],
            ],
        ),
        (
            &["fleet", "rollout", "--bundle", "new.json"],
            &[&["--fleet", "f.json"]],
        ),
    ];

    #[test]
    fn every_subcommand_rejects_a_misspelt_flag_and_keeps_its_own() {
        for &(base, optional) in SUBCOMMANDS {
            assert!(Command::parse(&args(base)).is_ok(), "{base:?}");
            for &extra in optional {
                let argv = [base, extra].concat();
                assert!(Command::parse(&args(&argv)).is_ok(), "{argv:?} no longer parses");
            }
            for misspelt in ["--sed", "--bogus-flag"] {
                let argv = [base, &[misspelt, "1"]].concat();
                let err = Command::parse(&args(&argv)).unwrap_err();
                assert!(err.contains(&format!("{misspelt:?}")), "{argv:?}: {err}");
            }
        }
    }

    /// Every count and seed flag, with the argv prefix that accepts it.
    const INTEGER_FLAGS: &[(&[&str], &str)] = &[
        (&["generate", "--dataset", "ml100k", "--out", "x.csv"], "--shrink"),
        (&["generate", "--dataset", "ml100k", "--out", "x.csv"], "--seed"),
        (&["fit", "--data", "d.csv"], "--dim"),
        (&["fit", "--data", "d.csv"], "--iterations"),
        (&["fit", "--data", "d.csv"], "--seed"),
        (&["fit", "--data", "d.csv"], "--threads"),
        (&["fit", "--data", "d.csv", "--checkpoint-dir", "ck"], "--checkpoint-every"),
        (&["recommend", "--load", "m.json", "--user", "7"], "-k"),
        (&["serve", "--load", "m.json"], "--workers"),
        (&["serve", "--load", "m.json"], "--cache"),
        (&["serve", "--load", "m.json"], "--batch-max"),
        (&["serve", "--load", "m.json"], "--trace-sample"),
        (&["serve", "--load", "m.json"], "--heartbeat-ms"),
        (&["fleet", "serve", "--load", "m.json"], "--replicas"),
        (&["fleet", "serve", "--load", "m.json"], "--workers"),
        (&["fleet", "serve", "--load", "m.json"], "--trace-sample"),
        (&["fleet", "serve", "--load", "m.json"], "--lease-ttl-ms"),
    ];

    #[test]
    fn every_count_and_seed_rejects_negative_fractional_and_float_values() {
        for &(base, flag) in INTEGER_FLAGS {
            for bad in ["-3", "2.7", "1000.9", "1e3", "-5", "x"] {
                let argv = [base, &[flag, bad]].concat();
                let err = Command::parse(&args(&argv)).unwrap_err();
                assert!(err.contains(flag) && err.contains(bad), "{argv:?}: {err}");
            }
            let argv = [base, &[flag, "500"]].concat();
            assert!(Command::parse(&args(&argv)).is_ok(), "{argv:?}");
        }
    }

    #[test]
    fn seeds_keep_every_bit_and_counts_keep_their_clamps() {
        let parse = |argv: &[&str]| Command::parse(&args(argv)).unwrap();
        let seed = |s: &str| match parse(&["fit", "--data", "d.csv", "--seed", s]) {
            Command::Fit(f) => f.seed,
            other => panic!("{other:?}"),
        };
        assert_eq!(seed("9007199254740993"), 9_007_199_254_740_993);
        assert_ne!(seed("9007199254740993"), seed("9007199254740992"));
        assert_eq!(seed("18446744073709551615"), u64::MAX);
        match parse(&["generate", "--dataset", "ml1m", "--out", "x", "--seed", "9007199254740993"]) {
            Command::Generate(g) => assert_eq!(g.seed, 9_007_199_254_740_993),
            other => panic!("{other:?}"),
        }
        // Zero stays a valid value with its old meaning.
        match parse(&["recommend", "--load", "m", "--user", "u", "-k", "0"]) {
            Command::Recommend(r) => assert_eq!(r.k, 1),
            other => panic!("{other:?}"),
        }
        match parse(&["fit", "--data", "d.csv", "--dim", "0", "--iterations", "1000"]) {
            Command::Fit(f) => assert_eq!((f.dim, f.iterations), (1, 1000)),
            other => panic!("{other:?}"),
        }
        match parse(&["generate", "--dataset", "ml1m", "--out", "x", "--shrink", "0"]) {
            Command::Generate(g) => assert_eq!(g.shrink, 1),
            other => panic!("{other:?}"),
        }
        let err = Command::parse(&args(&["generate", "--dataset", "ml1m", "--out", "x", "--shrink", "4294967296"])).unwrap_err();
        assert!(err.contains("--shrink"), "{err}");
    }

    #[test]
    fn unknown_subcommand_mentions_usage() {
        let err = Command::parse(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn missing_value_is_reported() {
        let err = Command::parse(&args(&["fit", "--data"])).unwrap_err();
        assert!(err.contains("--data requires a value"));
    }

    #[test]
    fn every_usage_synopsis_lists_exactly_its_tables_flags() {
        let text = usage();
        for (words, table, _) in COMMANDS {
            let start = text
                .find(&format!("  clapf {words} "))
                .unwrap_or_else(|| panic!("no synopsis for {words}"));
            // The synopsis runs until the first flag description line.
            let synopsis: Vec<&str> = text[start..]
                .lines()
                .take_while(|l| !l.starts_with("      -"))
                .collect();
            let listed: Vec<&str> = synopsis
                .iter()
                .flat_map(|l| l.split_whitespace())
                .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
                .filter(|w| w.starts_with('-'))
                .collect();
            let names: Vec<&str> = table.iter().map(|f| f.name).collect();
            assert_eq!(listed, names, "{words}");
            for f in table {
                assert!(
                    text.contains(&format!("      {}", f.usage_word())),
                    "{words}: {}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn a_replica_argv_parses_back_to_its_serve_args() {
        let defaults = ServeArgs::new(PathBuf::from("m.json"));
        assert_eq!(defaults.to_argv(), args(&["serve", "--load", "m.json"]));
        let replica = ServeArgs {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache: 0,
            watch_secs: Some(0.25),
            batch_max: 8,
            trace_sample: 16,
            register: Some("127.0.0.1:7900".into()),
            name: Some("replica-3".into()),
            heartbeat_ms: 333,
            fault_control: true,
            ..ServeArgs::new(PathBuf::from("fleet dir/replica-3.json"))
        };
        for a in [defaults, replica] {
            assert_eq!(
                Command::parse(&a.to_argv()).unwrap(),
                Command::Serve(a.clone())
            );
        }
    }
}
