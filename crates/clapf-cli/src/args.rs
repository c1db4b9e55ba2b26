//! Hand-rolled, fully-tested argument parsing for the `clapf` binary.

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
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "bpr" => Ok(ModelKind::Bpr),
            "clapf-map" => Ok(ModelKind::ClapfMap),
            "clapf-mrr" => Ok(ModelKind::ClapfMrr),
            other => Err(format!(
                "unknown model {other:?} (expected bpr | clapf-map | clapf-mrr)"
            )),
        }
    }
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
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quiet" => Ok(LogLevel::Quiet),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected quiet | info | debug)"
            )),
        }
    }
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
    /// Longest an underfull batch is held open, in microseconds (0
    /// disables the hold).
    pub batch_hold_us: u64,
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

/// Usage text shown by `clapf help` and on parse errors.
pub const USAGE: &str = "\
clapf — Collaborative List-and-Pairwise Filtering

USAGE:
  clapf generate --dataset ml100k [--shrink N] [--seed N] --out data.csv
  clapf fit --data FILE [--model bpr|clapf-map|clapf-mrr] [--lambda F]
            [--dss] [--dim N] [--iterations N] [--holdout F] [--seed N]
            [--threads N] [--save model.json] [--metrics-out run.jsonl]
            [--log-level quiet|info|debug]
            [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
  (clapf train is an alias for clapf fit)

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
  clapf recommend --load model.json --user RAW_ID [-k N]
  clapf serve --load model.json [--addr 127.0.0.1:7878] [--workers N]
              [--cache N] [--watch SECS] [--batch-max N] [--batch-hold-us N]
              [--trace-sample N] [--register HOST:PORT] [--name NAME]
              [--heartbeat-ms N] [--fault-control]

  serve answers GET /recommend/{user}?k=N, /healthz and /metrics, and
  hot-swaps the bundle on POST /reload (or automatically with --watch).
  --cache sizes the top-k result cache (0 disables it); POST /shutdown
  drains in-flight requests and stops. Every connection is served from
  one readiness loop (epoll on Linux), and concurrent cache misses are
  scored in micro-batches of up to --batch-max users (default 32), an
  underfull batch held at most --batch-hold-us microseconds (default
  100); --workers (default 4) sizes the scorer pool. Past 10000 open
  connections or 4096 queued misses, requests are shed with a typed
  503 + Retry-After. serve rejects any flag not listed above.
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
  clapf fleet serve --load model.json [--replicas N] [--addr 127.0.0.1:7900]
                    [--dir clapf-fleet] [--workers N] [--trace-sample N]
                    [--lease-ttl-ms N] [--fault-control]
  clapf fleet rollout --bundle new.json [--fleet clapf-fleet/fleet.json]

  fleet serve spawns --replicas (default 2) `clapf serve` child processes
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
  fleet rollout reads fleet.json and flips every replica to --bundle in
  two phases: stage + fingerprint-verify everywhere first, then a paused
  atomic commit — clients never see two model generations, and a failed
  commit aborts with the old generation restored fleet-wide.
  clapf trace --file run.jsonl
  clapf help

EXIT CODES:
  0 success   2 configuration/usage error   3 I/O error   4 training abort
";

impl Command {
    /// Parses an argument list (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let sub = match it.next() {
            None => return Ok(Command::Help),
            Some(s) => s.as_str(),
        };
        let rest: Vec<&String> = it.collect();
        let value = |flag: &str| -> Result<Option<&String>, String> {
            let mut found = None;
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == flag {
                    let v = rest
                        .get(i + 1)
                        .ok_or_else(|| format!("{flag} requires a value"))?;
                    found = Some(*v);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Ok(found)
        };
        let flag = |name: &str| rest.iter().any(|a| a.as_str() == name);
        let required = |flagname: &str| -> Result<&String, String> {
            value(flagname)?.ok_or_else(|| format!("missing required {flagname}"))
        };
        let parse_num = |flagname: &str, v: &str| -> Result<f64, String> {
            v.parse::<f64>()
                .map_err(|_| format!("{flagname} expects a number, got {v:?}"))
        };
        let parse_count = |flagname: &str, v: &str| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flagname} expects a non-negative integer, got {v:?}"))
        };

        match sub {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "generate" => {
                let dataset = required("--dataset")?.to_lowercase();
                let shrink = match value("--shrink")? {
                    Some(v) => parse_num("--shrink", v)? as u32,
                    None => 1,
                };
                let seed = match value("--seed")? {
                    Some(v) => parse_num("--seed", v)? as u64,
                    None => 42,
                };
                let out = PathBuf::from(required("--out")?);
                Ok(Command::Generate(GenerateArgs {
                    dataset,
                    shrink: shrink.max(1),
                    out,
                    seed,
                }))
            }
            "fit" | "train" => {
                let data = PathBuf::from(required("--data")?);
                let model = match value("--model")? {
                    Some(v) => ModelKind::parse(v)?,
                    None => ModelKind::ClapfMap,
                };
                let lambda = match value("--lambda")? {
                    Some(v) => parse_num("--lambda", v)? as f32,
                    None => 0.3,
                };
                if !(0.0..=1.0).contains(&lambda) {
                    return Err(format!("--lambda must be in [0, 1], got {lambda}"));
                }
                let dim = match value("--dim")? {
                    Some(v) => parse_num("--dim", v)? as usize,
                    None => 20,
                };
                let iterations = match value("--iterations")? {
                    Some(v) => parse_num("--iterations", v)? as usize,
                    None => 0,
                };
                let holdout = match value("--holdout")? {
                    Some(v) => parse_num("--holdout", v)?,
                    None => 0.5,
                };
                if !(0.0..1.0).contains(&holdout) {
                    return Err(format!("--holdout must be in [0, 1), got {holdout}"));
                }
                let seed = match value("--seed")? {
                    Some(v) => parse_num("--seed", v)? as u64,
                    None => 42,
                };
                let threads = match value("--threads")? {
                    Some(v) => parse_num("--threads", v)? as usize,
                    None => 1,
                };
                let log_level = match value("--log-level")? {
                    Some(v) => LogLevel::parse(v)?,
                    None => LogLevel::Info,
                };
                let checkpoint_dir = value("--checkpoint-dir")?.map(PathBuf::from);
                let checkpoint_every = match value("--checkpoint-every")? {
                    Some(v) => {
                        let n = parse_num("--checkpoint-every", v)? as usize;
                        if n == 0 {
                            return Err("--checkpoint-every must be at least 1".to_string());
                        }
                        n
                    }
                    None => 1,
                };
                let resume = flag("--resume");
                if checkpoint_dir.is_none() && (resume || value("--checkpoint-every")?.is_some()) {
                    return Err(
                        "--resume/--checkpoint-every require --checkpoint-dir".to_string()
                    );
                }
                Ok(Command::Fit(FitArgs {
                    data,
                    model,
                    lambda,
                    dss: flag("--dss"),
                    dim: dim.max(1),
                    iterations,
                    holdout,
                    seed,
                    threads,
                    save: value("--save")?.map(PathBuf::from),
                    metrics_out: value("--metrics-out")?.map(PathBuf::from),
                    log_level,
                    checkpoint_dir,
                    checkpoint_every,
                    resume,
                }))
            }
            "trace" => {
                let file = PathBuf::from(required("--file")?);
                Ok(Command::Trace(TraceArgs { file }))
            }
            "recommend" => {
                let load = PathBuf::from(required("--load")?);
                let user = required("--user")?.clone();
                let k = match value("-k")? {
                    Some(v) => parse_num("-k", v)? as usize,
                    None => 10,
                };
                Ok(Command::Recommend(RecommendArgs {
                    load,
                    user,
                    k: k.max(1),
                }))
            }
            "serve" => {
                reject_unknown_flags(
                    "serve",
                    &rest,
                    &[
                        "--load",
                        "--addr",
                        "--workers",
                        "--cache",
                        "--watch",
                        "--batch-max",
                        "--batch-hold-us",
                        "--trace-sample",
                        "--register",
                        "--name",
                        "--heartbeat-ms",
                    ],
                    &["--fault-control"],
                )?;
                let load = PathBuf::from(required("--load")?);
                let addr = value("--addr")?
                    .cloned()
                    .unwrap_or_else(|| "127.0.0.1:7878".to_string());
                let workers = match value("--workers")? {
                    Some(v) => parse_count("--workers", v)?,
                    None => 4,
                };
                let cache = match value("--cache")? {
                    Some(v) => parse_count("--cache", v)?,
                    None => 4096,
                };
                let watch_secs = match value("--watch")? {
                    Some(v) => {
                        let secs = parse_num("--watch", v)?;
                        if secs.is_nan() || secs <= 0.0 {
                            return Err(format!("--watch must be positive, got {secs}"));
                        }
                        Some(secs)
                    }
                    None => None,
                };
                let batch_max = match value("--batch-max")? {
                    Some(v) => {
                        let n = parse_num("--batch-max", v)?;
                        if n.is_nan() || n < 1.0 {
                            return Err(format!("--batch-max must be at least 1, got {n}"));
                        }
                        n as usize
                    }
                    None => 32,
                };
                let batch_hold_us = match value("--batch-hold-us")? {
                    Some(v) => {
                        let us = parse_num("--batch-hold-us", v)?;
                        if us.is_nan() || us < 0.0 {
                            return Err(format!("--batch-hold-us must be >= 0, got {us}"));
                        }
                        us as u64
                    }
                    None => 100,
                };
                let trace_sample = match value("--trace-sample")? {
                    Some(v) => {
                        let n = parse_num("--trace-sample", v)?;
                        if n.is_nan() || n < 0.0 {
                            return Err(format!("--trace-sample must be >= 0, got {n}"));
                        }
                        n as u64
                    }
                    None => 0,
                };
                let register = value("--register")?.cloned();
                let name = value("--name")?.cloned();
                if let Some(n) = &name {
                    if n.is_empty() || !n.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)) {
                        return Err(format!(
                            "--name must be non-empty and use only letters, digits, '-', '_', '.', got {n:?}"
                        ));
                    }
                }
                let heartbeat_ms = match value("--heartbeat-ms")? {
                    Some(v) => {
                        let ms = parse_num("--heartbeat-ms", v)?;
                        if ms.is_nan() || ms < 1.0 {
                            return Err(format!("--heartbeat-ms must be at least 1, got {ms}"));
                        }
                        ms as u64
                    }
                    None => 1000,
                };
                let fault_control = flag("--fault-control");
                Ok(Command::Serve(ServeArgs {
                    load,
                    addr,
                    workers: workers.max(1),
                    cache,
                    watch_secs,
                    batch_max,
                    batch_hold_us,
                    trace_sample,
                    register,
                    name,
                    heartbeat_ms,
                    fault_control,
                }))
            }
            "fleet" => match rest.first().map(|s| s.as_str()) {
                Some("serve") => {
                    let load = PathBuf::from(required("--load")?);
                    let replicas = match value("--replicas")? {
                        Some(v) => {
                            let n = parse_num("--replicas", v)?;
                            if n.is_nan() || n < 1.0 {
                                return Err(format!("--replicas must be at least 1, got {n}"));
                            }
                            n as usize
                        }
                        None => 2,
                    };
                    let addr = value("--addr")?
                        .cloned()
                        .unwrap_or_else(|| "127.0.0.1:7900".to_string());
                    let dir = value("--dir")?
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("clapf-fleet"));
                    let workers = match value("--workers")? {
                        Some(v) => parse_num("--workers", v)? as usize,
                        None => 4,
                    };
                    let trace_sample = match value("--trace-sample")? {
                        Some(v) => {
                            let n = parse_num("--trace-sample", v)?;
                            if n.is_nan() || n < 0.0 {
                                return Err(format!("--trace-sample must be >= 0, got {n}"));
                            }
                            n as u64
                        }
                        None => 0,
                    };
                    let lease_ttl_ms = match value("--lease-ttl-ms")? {
                        Some(v) => {
                            let ms = parse_num("--lease-ttl-ms", v)?;
                            if ms.is_nan() || ms < 100.0 {
                                return Err(format!(
                                    "--lease-ttl-ms must be at least 100, got {ms}"
                                ));
                            }
                            ms as u64
                        }
                        None => 3000,
                    };
                    let fault_control = flag("--fault-control");
                    Ok(Command::FleetServe(FleetServeArgs {
                        load,
                        replicas,
                        addr,
                        dir,
                        workers: workers.max(1),
                        trace_sample,
                        lease_ttl_ms,
                        fault_control,
                    }))
                }
                Some("rollout") => {
                    let bundle = PathBuf::from(required("--bundle")?);
                    let fleet = value("--fleet")?
                        .map(PathBuf::from)
                        .unwrap_or_else(|| PathBuf::from("clapf-fleet/fleet.json"));
                    Ok(Command::FleetRollout(FleetRolloutArgs { fleet, bundle }))
                }
                other => Err(format!(
                    "fleet takes serve | rollout, got {other:?}\n{USAGE}"
                )),
            },
            other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        }
    }
}

/// Fails on the first argument that is neither one of the subcommand's
/// `valued` flags (skipping its value) nor one of its `switches`, naming
/// it: a misspelt or retired flag must not be silently ignored.
fn reject_unknown_flags(
    sub: &str,
    rest: &[&String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        if valued.contains(&arg) {
            i += 2;
        } else if switches.contains(&arg) {
            i += 1;
        } else {
            return Err(format!("{sub} does not accept {arg:?} (see `clapf help`)"));
        }
    }
    Ok(())
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
                batch_hold_us: 100,
                trace_sample: 0,
                register: None,
                name: None,
                heartbeat_ms: 1000,
                fault_control: false,
            })
        );
        let c = Command::parse(&args(&[
            "serve", "--load", "m.json", "--addr", "0.0.0.0:9000", "--workers", "8",
            "--cache", "0", "--watch", "2.5", "--batch-max", "8", "--batch-hold-us", "0",
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
                batch_hold_us: 0,
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
}
