//! Execution of the parsed CLI commands.

use crate::args::{
    Command, FitArgs, FleetRolloutArgs, FleetServeArgs, GenerateArgs, LogLevel, ModelKind,
    RecommendArgs, ServeArgs, TraceArgs,
};
use crate::bundle::ModelBundle;
use crate::telemetry::CliObserver;
use clapf_core::{Clapf, ClapfConfig, ClapfMode, FitOptions, FitReport, ParallelConfig};
use clapf_data::loader::{load_ratings_path, PAPER_RATING_THRESHOLD};
use clapf_data::split::{split, SplitStrategy};
use clapf_data::synthetic::{self, DatasetSpec, WorldConfig};
use clapf_data::{export, Interactions};
use clapf_metrics::{evaluate_instrumented, EvalConfig, EvalStats};
use clapf_sampling::{DssMode, DssSampler, DssStats, TripleSampler, UniformSampler};
use clapf_telemetry::{per_sec, timed, JsonlSink, NoopObserver, Registry, TrainObserver};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;

/// What went wrong, classified so scripts can branch on the exit code
/// (mirrors the convention at the bottom of `clapf help`).
#[derive(Debug)]
pub enum CliError {
    /// Bad flags, unknown names, invalid combinations — exit code 2.
    Config(String),
    /// A file could not be read, written or parsed — exit code 3.
    Io(String),
    /// Training aborted (divergence with the retry budget spent) — exit
    /// code 4.
    Train(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Config(_) => 2,
            CliError::Io(_) => 3,
            CliError::Train(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Config(m) | CliError::Io(m) | CliError::Train(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Shorthand: human-output write failures are I/O errors.
fn werr(e: std::io::Error) -> CliError {
    CliError::Io(format!("write output: {e}"))
}

/// Runs a parsed command, writing human output to `out`. Returns the
/// process exit code (0 ok, 2 config, 3 I/O, 4 training abort).
pub fn run<W: Write>(cmd: Command, out: &mut W) -> i32 {
    let result = match cmd {
        Command::Help => {
            let _ = writeln!(out, "{}", crate::args::usage());
            Ok(())
        }
        Command::Generate(a) => generate(a, out),
        Command::Fit(a) => fit(a, out),
        Command::Recommend(a) => recommend(a, out),
        Command::Serve(a) => serve(a, out),
        Command::FleetServe(a) => fleet_serve(a, out),
        Command::FleetRollout(a) => fleet_rollout(a, out),
        Command::Trace(a) => trace(a, out),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            e.exit_code()
        }
    }
}

fn spec_by_name(name: &str) -> Result<DatasetSpec, CliError> {
    synthetic::paper_datasets()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::Config(format!(
                "unknown dataset {name:?} (expected one of ml100k, ml1m, usertag, ml20m, flixter, netflix)"
            ))
        })
}

fn generate<W: Write>(a: GenerateArgs, out: &mut W) -> Result<(), CliError> {
    let mut spec = spec_by_name(&a.dataset)?;
    if a.shrink > 1 {
        let s = a.shrink;
        let item_s = (s as f64).sqrt().round().max(1.0) as u32;
        let cfg = &mut spec.config;
        *cfg = WorldConfig {
            n_users: (cfg.n_users / s).max(24),
            n_items: (cfg.n_items / item_s).max(48),
            target_pairs: (cfg.target_pairs / s as usize).max(300),
            ..cfg.clone()
        };
    }
    let mut rng = SmallRng::seed_from_u64(a.seed);
    let data = synthetic::generate(&spec.config, &mut rng)
        .map_err(|e| CliError::Config(e.to_string()))?;
    let file = std::fs::File::create(&a.out)
        .map_err(|e| CliError::Io(format!("create {:?}: {e}", a.out)))?;
    export::write_csv(&data, std::io::BufWriter::new(file))
        .map_err(|e| CliError::Io(e.to_string()))?;
    writeln!(
        out,
        "wrote {} ({} users × {} items, {} pairs, {:.2}% dense)",
        a.out.display(),
        data.n_users(),
        data.n_items(),
        data.n_pairs(),
        data.density() * 100.0
    )
    .map_err(werr)
}

fn fit_model(
    a: &FitArgs,
    train: &Interactions,
    observer: &mut dyn TrainObserver,
    registry: Option<&Registry>,
) -> Result<(clapf_mf::MfModel, String, FitReport), CliError> {
    let (mode, lambda) = match a.model {
        // CLAPF at λ = 0 optimizes BPR's criterion (its steps only add
        // weight decay on the second observed item).
        ModelKind::Bpr => (ClapfMode::Map, 0.0),
        ModelKind::ClapfMap => (ClapfMode::Map, a.lambda),
        ModelKind::ClapfMrr => (ClapfMode::Mrr, a.lambda),
    };
    let base = match mode {
        ClapfMode::Map => ClapfConfig::map(lambda),
        ClapfMode::Mrr => ClapfConfig::mrr(lambda),
    };
    let parallel = ParallelConfig {
        threads: a.threads,
        chunk_size: 0,
    };
    let config = ClapfConfig {
        dim: a.dim,
        iterations: a.iterations,
        parallel,
        ..base
    };
    let trainer = Clapf::new(config);
    let workers = parallel.resolve_threads();
    // Crash-safe runs are serial only: a Hogwild interleaving is not
    // replayable, so resuming it could not reproduce the run.
    let ckpt = a
        .checkpoint_dir
        .as_ref()
        .map(|dir| clapf_core::CheckpointConfig {
            every_epochs: a.checkpoint_every,
            resume: a.resume,
            ..clapf_core::CheckpointConfig::new(dir.clone())
        });
    if ckpt.is_some() && workers != 1 {
        return Err(CliError::Config(format!(
            "--checkpoint-dir requires the serial trainer (--threads 1), got {workers} workers"
        )));
    }
    let mut sampler: Box<dyn TripleSampler> = if a.dss {
        let mut s = DssSampler::dss(match mode {
            ClapfMode::Map => DssMode::Map,
            ClapfMode::Mrr => DssMode::Mrr,
        });
        // DSS introspection rides on the sampler itself: when a registry is
        // live, the sampler's draw-depth and refresh series land in it (the
        // Hogwild workers' copies share the same counters through `Arc`s).
        if let Some(reg) = registry {
            s.attach_stats(DssStats::registered(reg));
        }
        Box::new(s)
    } else {
        Box::new(UniformSampler)
    };
    let opts = FitOptions {
        observer: Some(observer),
        checkpoint: ckpt.as_ref(),
        probe: None,
    };
    let (model, report) = trainer
        .fit_with(train, sampler.as_mut(), a.seed, opts)
        .map_err(|e| match e {
            clapf_core::CheckpointError::Mismatch { .. } => CliError::Config(format!(
                "{e} (pass a fresh --checkpoint-dir or drop --resume after changing the run config)"
            )),
            other => CliError::Io(other.to_string()),
        })?;
    let name = match a.model {
        ModelKind::Bpr => "BPR".to_string(),
        _ => format!("CLAPF(λ={lambda:.1})-{mode}"),
    };
    let description = format!(
        "{name}{}, d={}, {} steps in {:.1?}, {} thread{}",
        if a.dss { "+DSS" } else { "" },
        a.dim,
        report.iterations,
        report.elapsed,
        workers,
        if workers == 1 { "" } else { "s" }
    );
    Ok((model.mf, description, report))
}

/// A no-output observer whose `enabled()` is true, so the trainer pays for
/// per-epoch statistics (used by `--log-level debug` without a trace file).
struct StatsOnly;
impl TrainObserver for StatsOnly {}

fn fit<W: Write>(a: FitArgs, out: &mut W) -> Result<(), CliError> {
    let chatty = a.log_level != LogLevel::Quiet;
    let loaded = load_ratings_path(&a.data, PAPER_RATING_THRESHOLD)
        .map_err(|e| CliError::Io(format!("load {:?}: {e}", a.data)))?;
    if chatty {
        writeln!(
            out,
            "loaded {}: {} users × {} items, {} positive pairs",
            a.data.display(),
            loaded.interactions.n_users(),
            loaded.interactions.n_items(),
            loaded.interactions.n_pairs()
        )
        .map_err(werr)?;
    }

    let mut rng = SmallRng::seed_from_u64(a.seed);
    let (train, test) = if a.holdout > 0.0 {
        let s = split(
            &loaded.interactions,
            SplitStrategy::GlobalPairs,
            1.0 - a.holdout,
            &mut rng,
        )
        .map_err(|e| CliError::Config(e.to_string()))?;
        (s.train, Some(s.test))
    } else {
        (loaded.interactions.clone(), None)
    };

    // One registry collects the whole run (DSS sampler series, eval
    // series); its final snapshot lands in the `summary` trace event and
    // in the saved bundle. Series are only attached when tracing.
    let registry = Registry::new();
    let tracing = a.metrics_out.is_some();
    let mut cli_obs = match &a.metrics_out {
        Some(p) => {
            let sink = JsonlSink::to_file(p)
                .map_err(|e| CliError::Io(format!("create {p:?}: {e}")))?
                .with_drop_counter(registry.counter("telemetry.dropped"));
            Some(CliObserver::new(sink))
        }
        None => None,
    };
    let mut stats_only = StatsOnly;
    let mut noop = NoopObserver;
    let observer: &mut dyn TrainObserver = match cli_obs.as_mut() {
        Some(o) => o,
        None if a.log_level == LogLevel::Debug => &mut stats_only,
        None => &mut noop,
    };

    let (model, mut description, report) =
        fit_model(&a, &train, observer, tracing.then_some(&registry))?;
    if let Some(epoch) = report.resumed_from {
        registry.counter("train.resumed").inc();
        if chatty {
            writeln!(out, "resumed from checkpoint at epoch {epoch}").map_err(werr)?;
        }
    }
    if report.recoveries > 0 {
        registry
            .counter("train.divergence.recoveries")
            .add(report.recoveries as u64);
        if chatty {
            writeln!(
                out,
                "recovered from divergence {} time(s) by rolling back to the last checkpoint",
                report.recoveries
            )
            .map_err(werr)?;
        }
    }
    if chatty {
        writeln!(out, "trained {description}").map_err(werr)?;
    }
    if a.log_level == LogLevel::Debug {
        for e in &report.epochs {
            writeln!(
                out,
                "  epoch {:>3}: {} steps in {:.3}s ({:.0} triples/sec, loss {:.4}, |U| {:.4}, |V| {:.4})",
                e.epoch,
                e.steps,
                e.elapsed.as_secs_f64(),
                e.triples_per_sec,
                e.loss,
                e.user_norm,
                e.item_norm
            )
            .map_err(werr)?;
        }
    }
    if report.diverged {
        if let Some(obs) = &cli_obs {
            obs.sink().flush();
        }
        return Err(CliError::Train(match report.aborted_at {
            Some(at) => format!(
                "training aborted at step {at}: parameters diverged (lower the learning rate, \
                 or use --checkpoint-dir for automatic rollback-and-retry)"
            ),
            None => "training aborted: parameters diverged".to_string(),
        }));
    }
    if let Some(at) = report.aborted_at {
        writeln!(out, "training stopped early at step {at} (observer abort)").map_err(werr)?;
    }

    if let Some(test) = test {
        let eval_stats = tracing.then(|| EvalStats::registered(&registry));
        let (report, wall) = timed(|| {
            // `MfModel` implements `BulkScorer` directly (batch kernel and
            // all), so the evaluator scores the model without a wrapper.
            evaluate_instrumented(&model, &train, &test, &EvalConfig::at_5(), eval_stats.as_deref())
        });
        let eval_secs = wall.as_secs_f64();
        let users_per_sec = per_sec(report.n_users, wall);
        writeln!(
            out,
            "held-out metrics over {} users: Prec@5 {:.3}  Recall@5 {:.3}  NDCG@5 {:.3}  MAP {:.3}  MRR {:.3}  AUC {:.3}",
            report.n_users,
            report.topk[&5].precision,
            report.topk[&5].recall,
            report.topk[&5].ndcg,
            report.map,
            report.mrr,
            report.auc
        )
        .map_err(werr)?;
        if chatty {
            writeln!(
                out,
                "evaluated in {eval_secs:.2}s ({users_per_sec:.0} users/sec, full ranking)"
            )
            .map_err(werr)?;
        }
        description = format!("{description}; eval {eval_secs:.2}s ({users_per_sec:.0} users/sec)");
        if let Some(obs) = &cli_obs {
            obs.sink().emit(
                "eval",
                vec![
                    ("users".into(), report.n_users.into()),
                    ("secs".into(), eval_secs.into()),
                    ("users_per_sec".into(), users_per_sec.into()),
                    ("map".into(), report.map.into()),
                    ("mrr".into(), report.mrr.into()),
                    ("auc".into(), report.auc.into()),
                ],
            );
            // Evaluation as a span too, under its own trace id (far from
            // the per-epoch sequence), so `clapf trace` folds it into the
            // same latency table as the training phases.
            crate::telemetry::emit_span(
                obs.sink(),
                clapf_telemetry::TraceId::from_seq(1 << 32),
                "eval.rank",
                0,
                (eval_secs * 1e6) as u64,
            );
        }
    }

    let metrics_snapshot = tracing.then(|| registry.snapshot());
    if let (Some(obs), Some(snap)) = (&cli_obs, &metrics_snapshot) {
        obs.sink()
            .emit("summary", vec![("registry".into(), snap.clone())]);
        obs.sink().flush();
    }

    if let Some(path) = &a.save {
        let bundle = ModelBundle::new(description, model, loaded.ids, &train)
            .with_metrics(metrics_snapshot.map(|s| s.render()));
        bundle
            .save(path)
            .map_err(|e| CliError::Io(format!("save {path:?}: {e}")))?;
        if chatty {
            writeln!(out, "saved model bundle to {}", path.display()).map_err(werr)?;
        }
    }
    if let (Some(obs), Some(p)) = (&cli_obs, &a.metrics_out) {
        obs.sink().flush();
        if chatty {
            writeln!(out, "wrote run trace to {}", p.display()).map_err(werr)?;
        }
    }
    Ok(())
}

/// One parsed `span` event from a JSONL trace.
struct SpanEvent {
    trace: String,
    stage: String,
    start_us: u64,
    dur_us: u64,
}

/// The `p`-th percentile (0..=100, nearest-rank) of a sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Validates a `--metrics-out` JSONL trace: every line must parse as a JSON
/// object with an `ev` kind. Prints a tally of the event kinds; when the
/// stream carries `span` events (training phase spans, serve request
/// traces), also prints a per-stage latency table (p50/p95/p99 of the span
/// durations) and a stage-by-stage breakdown of the slowest trace.
fn trace<W: Write>(a: TraceArgs, out: &mut W) -> Result<(), CliError> {
    let body = std::fs::read_to_string(&a.file)
        .map_err(|e| CliError::Io(format!("read {:?}: {e}", a.file)))?;
    let mut kinds: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    let mut total = 0usize;
    let mut spans: Vec<SpanEvent> = Vec::new();
    for (n, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde::Value = serde_json::from_str(line).map_err(|e| {
            CliError::Io(format!("{}:{}: invalid JSON: {e}", a.file.display(), n + 1))
        })?;
        let serde::Value::Map(fields) = &v else {
            return Err(CliError::Io(format!(
                "{}:{}: not a JSON object",
                a.file.display(),
                n + 1
            )));
        };
        let str_field = |name: &str| {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
                serde::Value::Str(s) => Some(s.clone()),
                _ => None,
            })
        };
        let num_field = |name: &str| {
            fields.iter().find(|(k, _)| k == name).and_then(|(_, v)| match v {
                serde::Value::Int(i) => u64::try_from(*i).ok(),
                serde::Value::UInt(u) => Some(*u),
                serde::Value::Float(f) => Some(*f as u64),
                _ => None,
            })
        };
        let kind = str_field("ev").ok_or_else(|| {
            CliError::Io(format!(
                "{}:{}: missing \"ev\" event kind",
                a.file.display(),
                n + 1
            ))
        })?;
        if kind == "span" {
            if let (Some(trace), Some(stage)) = (str_field("trace"), str_field("stage")) {
                spans.push(SpanEvent {
                    trace,
                    stage,
                    start_us: num_field("start_us").unwrap_or(0),
                    dur_us: num_field("dur_us").unwrap_or(0),
                });
            }
        }
        *kinds.entry(kind).or_insert(0) += 1;
        total += 1;
    }
    writeln!(out, "{}: {} events", a.file.display(), total).map_err(werr)?;
    for (kind, count) in &kinds {
        writeln!(out, "  {kind:<12} {count}").map_err(werr)?;
    }
    if spans.is_empty() {
        return Ok(());
    }

    // Per-stage duration percentiles.
    let mut by_stage: std::collections::BTreeMap<&str, Vec<u64>> =
        std::collections::BTreeMap::new();
    for s in &spans {
        by_stage.entry(&s.stage).or_default().push(s.dur_us);
    }
    writeln!(out, "\nper-stage latency (us):").map_err(werr)?;
    writeln!(
        out,
        "  {:<20} {:>7} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p95", "p99"
    )
    .map_err(werr)?;
    for (stage, durs) in &mut by_stage {
        durs.sort_unstable();
        writeln!(
            out,
            "  {:<20} {:>7} {:>10} {:>10} {:>10}",
            stage,
            durs.len(),
            percentile(durs, 50),
            percentile(durs, 95),
            percentile(durs, 99)
        )
        .map_err(werr)?;
    }

    // The slowest trace, stage by stage. A trace's wall time is the far
    // edge of its furthest span (spans may nest, so summing would double
    // count).
    let mut by_trace: std::collections::BTreeMap<&str, (u64, Vec<&SpanEvent>)> =
        std::collections::BTreeMap::new();
    for s in &spans {
        let e = by_trace.entry(&s.trace).or_default();
        e.0 = e.0.max(s.start_us + s.dur_us);
        e.1.push(s);
    }
    let (id, (end_us, trace_spans)) = by_trace
        .iter()
        .max_by_key(|(_, (end, _))| *end)
        .expect("spans nonempty");
    writeln!(out, "\nslowest trace {id} ({end_us} us):").map_err(werr)?;
    for s in trace_spans {
        writeln!(
            out,
            "  {:<20} @{:>8} +{:>8}",
            s.stage, s.start_us, s.dur_us
        )
        .map_err(werr)?;
    }
    Ok(())
}

/// Boots the HTTP server on the saved bundle and blocks until it shuts
/// down (`POST /shutdown`, or the process is killed). The `listening on`
/// line is written (and flushed) before blocking so wrappers can scrape
/// the resolved port when binding to port 0.
fn serve<W: Write>(a: ServeArgs, out: &mut W) -> Result<(), CliError> {
    let member_name = a
        .name
        .clone()
        .unwrap_or_else(|| format!("replica-{}", std::process::id()));
    let register = a.register.as_ref().map(|router| clapf_serve::RegisterConfig {
        router: router.clone(),
        name: member_name.clone(),
        interval: std::time::Duration::from_millis(a.heartbeat_ms),
    });
    let config = clapf_serve::ServeConfig {
        addr: a.addr.clone(),
        workers: a.workers,
        cache_capacity: a.cache,
        watch_poll: a.watch_secs.map(std::time::Duration::from_secs_f64),
        batch_max: a.batch_max,
        trace_sample: a.trace_sample,
        register,
        fault_control: a.fault_control,
        ..clapf_serve::ServeConfig::default()
    };
    let registry = std::sync::Arc::new(Registry::new());
    let handle = clapf_serve::start(a.load.clone(), config, registry)
        .map_err(|e| CliError::Io(e.to_string()))?;
    writeln!(
        out,
        "serving {} (cache {} entries, {} workers, event loop, batches of up to {}{})",
        a.load.display(),
        a.cache,
        a.workers,
        a.batch_max,
        match a.watch_secs {
            Some(s) => format!(", watching every {s}s"),
            None => String::new(),
        }
    )
    .map_err(werr)?;
    if let Some(router) = &a.register {
        writeln!(
            out,
            "registering with http://{router} as {member_name} every {}ms",
            a.heartbeat_ms
        )
        .map_err(werr)?;
    }
    writeln!(out, "listening on http://{}", handle.addr()).map_err(werr)?;
    out.flush().map_err(werr)?;
    handle.wait();
    writeln!(out, "server drained and stopped").map_err(werr)?;
    Ok(())
}

/// Boots a sharded fleet: the consistent-hash router starts first with an
/// empty member table, then `--replicas` child `clapf serve` processes on
/// ephemeral ports (each owning a copy of the bundle under `--dir`) join
/// it by self-registering over `POST /fleet/register` and heartbeating
/// membership leases. The supervisor is just another registrant: it registers each child
/// synchronously at spawn (so startup order is deterministic) and again
/// after a restart, but steady-state liveness is the lease protocol's —
/// a replica whose heartbeats stop is evicted when its lease expires and
/// re-admitted by its next registration, supervisor or not. A dead
/// process restarts with exponential backoff, keeping its ring slot
/// (names are stable). `POST /shutdown` on the router drains everything.
fn fleet_serve<W: Write>(a: FleetServeArgs, out: &mut W) -> Result<(), CliError> {
    use clapf_fleet::{start_router, FleetSpec, Replica, ReplicaConfig, ReplicaSpec, RouterConfig};
    use std::time::Duration;

    std::fs::create_dir_all(&a.dir)
        .map_err(|e| CliError::Io(format!("create {:?}: {e}", a.dir)))?;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("resolving own executable: {e}")))?;

    // Router first: replicas register themselves with it as they boot.
    let lease_ttl = Duration::from_millis(a.lease_ttl_ms);
    let heartbeat_ms = (a.lease_ttl_ms / 3).max(50);
    let registry = std::sync::Arc::new(Registry::new());
    let router = start_router(
        RouterConfig {
            addr: a.addr.clone(),
            replicas: Vec::new(),
            workers: a.workers,
            trace_sample: a.trace_sample,
            lease_ttl,
            ..RouterConfig::default()
        },
        registry,
    )
    .map_err(|e| CliError::Io(e.to_string()))?;

    let mut replicas = Vec::new();
    let mut replica_specs = Vec::new();
    for i in 0..a.replicas {
        let bundle = a.dir.join(format!("replica-{i}.json"));
        std::fs::copy(&a.load, &bundle)
            .map_err(|e| CliError::Io(format!("copy {:?} -> {bundle:?}: {e}", a.load)))?;
        let replica = ServeArgs {
            addr: "127.0.0.1:0".into(),
            register: Some(router.addr().to_string()),
            name: Some(format!("replica-{i}")),
            heartbeat_ms,
            fault_control: a.fault_control,
            ..ServeArgs::new(bundle.clone())
        };
        let config = ReplicaConfig {
            exe: exe.clone(),
            args: replica.to_argv(),
            announce_timeout: Duration::from_secs(30),
        };
        let r = Replica::spawn(config).map_err(|e| CliError::Io(format!("replica {i}: {e}")))?;
        // Register synchronously too: the ring routes to this replica the
        // instant it is up, not a heartbeat later, and slot order matches
        // spawn order (the heartbeat that races this call is idempotent —
        // membership is keyed by name).
        router.register_member(&format!("replica-{i}"), r.addr());
        writeln!(
            out,
            "replica {i}: pid {} on http://{} serving {}",
            r.pid(),
            r.addr(),
            bundle.display()
        )
        .map_err(werr)?;
        replica_specs.push(ReplicaSpec {
            addr: r.addr(),
            bundle,
        });
        replicas.push(r);
    }

    let mut spec = FleetSpec {
        router: Some(router.addr()),
        replicas: replica_specs,
    };
    let fleet_path = a.dir.join("fleet.json");
    spec.save(&fleet_path)
        .map_err(|e| CliError::Io(format!("write {fleet_path:?}: {e}")))?;
    writeln!(out, "fleet spec written to {}", fleet_path.display()).map_err(werr)?;
    writeln!(out, "listening on http://{}", router.addr()).map_err(werr)?;
    out.flush().map_err(werr)?;

    // Supervision loop: restart dead replicas (with backoff, keeping their
    // ring slot), re-register them and rewrite fleet.json each time.
    while !router.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(200));
        for (slot, r) in replicas.iter_mut().enumerate() {
            if router.shutdown_requested() {
                break;
            }
            if r.is_running() {
                continue;
            }
            let delay = r.restart_delay();
            writeln!(out, "replica {slot} died; restarting in {delay:?}").map_err(werr)?;
            std::thread::sleep(delay);
            match r.restart() {
                Ok(addr) => {
                    router.register_member(&format!("replica-{slot}"), addr);
                    spec.replicas[slot].addr = addr;
                    if let Err(e) = spec.save(&fleet_path) {
                        writeln!(out, "warning: rewriting {fleet_path:?}: {e}").map_err(werr)?;
                    }
                    writeln!(out, "replica {slot} back on http://{addr}").map_err(werr)?;
                }
                Err(e) => {
                    // Backoff grows; the next loop iteration tries again.
                    writeln!(out, "replica {slot} restart failed: {e}").map_err(werr)?;
                }
            }
        }
    }

    // Graceful drain: router first (stop accepting), then every replica.
    router.shutdown();
    for r in replicas {
        r.shutdown(Duration::from_secs(5));
    }
    writeln!(out, "fleet drained and stopped").map_err(werr)?;
    Ok(())
}

/// Runs the two-phase rollout against the fleet described by `fleet.json`.
fn fleet_rollout<W: Write>(a: FleetRolloutArgs, out: &mut W) -> Result<(), CliError> {
    let spec = clapf_fleet::FleetSpec::load(&a.fleet)
        .map_err(|e| CliError::Io(format!("load fleet spec {:?}: {e}", a.fleet)))?;
    writeln!(
        out,
        "rolling {} out to {} replica(s)",
        a.bundle.display(),
        spec.replicas.len()
    )
    .map_err(werr)?;
    match clapf_fleet::rollout(&spec, &a.bundle) {
        Ok(report) => {
            writeln!(
                out,
                "fleet now serves fingerprint {:016x} (generations {:?})",
                report.fingerprint, report.generations
            )
            .map_err(werr)?;
            writeln!(
                out,
                "staged and verified under live traffic in {:.1?}; pause-commit-resume window {:.1?}",
                report.staged, report.commit_window
            )
            .map_err(werr)?;
            Ok(())
        }
        // A rejection leaves the fleet untouched on the old generation —
        // bad input, not a broken fleet.
        Err(e @ clapf_fleet::RolloutError::Rejected { .. }) => Err(CliError::Config(e.to_string())),
        Err(e) => Err(CliError::Io(e.to_string())),
    }
}

fn recommend<W: Write>(a: RecommendArgs, out: &mut W) -> Result<(), CliError> {
    let bundle = ModelBundle::load(&a.load).map_err(|e| CliError::Io(e.to_string()))?;
    writeln!(out, "model: {}", bundle.description).map_err(werr)?;
    // An unknown user is a usage problem, not a broken file.
    let recs = bundle.recommend_raw(&a.user, a.k).map_err(CliError::Config)?;
    writeln!(out, "top-{} for user {}:", a.k, a.user).map_err(werr)?;
    for (rank, item) in recs.iter().enumerate() {
        writeln!(out, "  {:>2}. {item}", rank + 1).map_err(werr)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn run_cmd(v: &[&str]) -> (i32, String) {
        let cmd = Command::parse(&args(v)).expect("parse");
        let mut out = Vec::new();
        let code = run(cmd, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn end_to_end_generate_fit_recommend() {
        let dir = std::env::temp_dir().join("clapf-cli-e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let model = dir.join("model.json");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("wrote"));

        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--model", "clapf-map", "--lambda",
            "0.3", "--dim", "8", "--iterations", "20000", "--save",
            model.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("held-out metrics"), "{text}");
        assert!(text.contains("users/sec"), "{text}");
        assert!(text.contains("saved model bundle"));

        // Grab a user id that exists from the CSV (first data row).
        let csv = std::fs::read_to_string(&data).unwrap();
        let first_user = csv.lines().nth(1).unwrap().split(',').next().unwrap();
        let (code, text) = run_cmd(&[
            "recommend", "--load", model.to_str().unwrap(), "--user", first_user, "-k", "3",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("top-3"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_with_threads_reports_worker_count() {
        let dir = std::env::temp_dir().join("clapf-cli-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations",
            "10000", "--threads", "4",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("4 threads"), "{text}");
        assert!(text.contains("held-out metrics"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_with_metrics_out_writes_a_valid_trace() {
        let dir = std::env::temp_dir().join("clapf-cli-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let trace = dir.join("run.jsonl");
        let model = dir.join("model.json");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--dss", "--dim", "8",
            "--iterations", "20000", "--metrics-out", trace.to_str().unwrap(),
            "--save", model.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("wrote run trace"), "{text}");

        // The trace must parse and contain the full event vocabulary.
        let body = std::fs::read_to_string(&trace).unwrap();
        for ev in ["fit_start", "epoch", "fit_end", "eval", "summary"] {
            assert!(
                body.lines().any(|l| l.contains(&format!("\"ev\":\"{ev}\""))),
                "missing {ev} event in:\n{body}"
            );
        }
        // DSS sampler introspection landed in the summary registry.
        assert!(body.contains("dss.draws"), "{body}");
        assert!(body.contains("eval.users"), "{body}");

        // `clapf trace` validates it and tallies kinds.
        let (code, text) = run_cmd(&["trace", "--file", trace.to_str().unwrap()]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("events"), "{text}");
        assert!(text.contains("fit_start"), "{text}");

        // The saved bundle embeds the same registry snapshot.
        let bundle = ModelBundle::load(&model).unwrap();
        let metrics = bundle.metrics.expect("traced fit embeds metrics");
        assert!(metrics.contains("dss.draws"), "{metrics}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quiet_log_level_keeps_only_results() {
        let dir = std::env::temp_dir().join("clapf-cli-quiet");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations",
            "5000", "--log-level", "quiet",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("held-out metrics"), "{text}");
        assert!(!text.contains("loaded"), "{text}");
        assert!(!text.contains("trained"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn debug_log_level_prints_epoch_lines() {
        let dir = std::env::temp_dir().join("clapf-cli-debug");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations",
            "5000", "--log-level", "debug",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("epoch"), "{text}");
        assert!(text.contains("triples/sec"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `Write` the test can read while `serve` blocks in another thread.
    #[derive(Clone, Default)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedOut {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    fn mini_http(addr: &str, method: &str, path: &str) -> (u16, String) {
        use std::io::Read;
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        write!(s, "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serve_command_boots_answers_and_drains() {
        let dir = std::env::temp_dir().join("clapf-cli-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let model = dir.join("model.json");

        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--dim", "4", "--iterations",
            "5000", "--save", model.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        // Boot `clapf serve` on an ephemeral port in a background thread.
        let cmd = Command::parse(&args(&[
            "serve", "--load", model.to_str().unwrap(), "--addr", "127.0.0.1:0",
        ]))
        .unwrap();
        let shared = SharedOut::default();
        let mut writer = shared.clone();
        let server = std::thread::spawn(move || run(cmd, &mut writer));

        // Scrape the resolved address off the flushed listening line.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Some(line) = shared.text().lines().find(|l| l.contains("listening on")) {
                break line.trim().rsplit("http://").next().unwrap().to_string();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never announced its address: {:?}",
                shared.text()
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let (status, body) = mini_http(&addr, "GET", "/healthz");
        assert_eq!(status, 200, "{body}");

        // A real user from the CSV gets a non-empty list; the output is the
        // same machinery as `clapf recommend`, so just sanity-check shape.
        let csv = std::fs::read_to_string(&data).unwrap();
        let user = csv.lines().nth(1).unwrap().split(',').next().unwrap();
        let (status, body) = mini_http(&addr, "GET", &format!("/recommend/{user}?k=3"));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"items\":["), "{body}");

        let (status, _) = mini_http(&addr, "POST", "/shutdown");
        assert_eq!(status, 200);
        assert_eq!(server.join().unwrap(), 0);
        assert!(shared.text().contains("server drained and stopped"), "{:?}", shared.text());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_rejects_invalid_jsonl() {
        let dir = std::env::temp_dir().join("clapf-cli-badtrace");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"ev\":\"epoch\"}\nnot json\n").unwrap();
        let (code, text) = run_cmd(&["trace", "--file", bad.to_str().unwrap()]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("invalid JSON"), "{text}");

        std::fs::write(&bad, "{\"epoch\":3}\n").unwrap();
        let (code, text) = run_cmd(&["trace", "--file", bad.to_str().unwrap()]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("missing \"ev\""), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_dataset_is_a_config_error() {
        let (code, text) = run_cmd(&["generate", "--dataset", "pinterest", "--out", "/tmp/x.csv"]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("unknown dataset"));
    }

    #[test]
    fn missing_model_file_is_an_io_error() {
        let (code, text) = run_cmd(&["recommend", "--load", "/nonexistent.json", "--user", "1"]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("error"));
    }

    #[test]
    fn missing_data_file_is_an_io_error() {
        let (code, text) = run_cmd(&["fit", "--data", "/nonexistent.csv"]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("load"), "{text}");
    }

    #[test]
    fn checkpointing_with_threads_is_a_config_error() {
        let dir = std::env::temp_dir().join("clapf-cli-ckpt-threads");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        let ckpts = dir.join("ckpts");
        let (code, text) = run_cmd(&[
            "fit", "--data", data.to_str().unwrap(), "--threads", "4",
            "--checkpoint-dir", ckpts.to_str().unwrap(),
        ]);
        assert_eq!(code, 2, "{text}");
        assert!(text.contains("--threads 1"), "{text}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_with_checkpoints_writes_them_and_resumes() {
        let dir = std::env::temp_dir().join("clapf-cli-ckpt-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let ckpts = dir.join("ckpts");
        let (code, text) = run_cmd(&[
            "generate", "--dataset", "ml100k", "--shrink", "24", "--out",
            data.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");

        // The `train` alias runs the crash-safe path and leaves checkpoints.
        let (code, text) = run_cmd(&[
            "train", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations",
            "10000", "--checkpoint-dir", ckpts.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("held-out metrics"), "{text}");
        let n_ckpts = std::fs::read_dir(&ckpts)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
            .count();
        assert!(n_ckpts > 0, "no checkpoints written");

        // Re-running with --resume picks up the finished run's final
        // checkpoint: no training left to do, identical metrics line.
        let metrics_line = |t: &str| {
            t.lines()
                .find(|l| l.contains("held-out metrics"))
                .map(str::to_string)
                .expect("metrics line")
        };
        let first = metrics_line(&text);
        let (code, text) = run_cmd(&[
            "train", "--data", data.to_str().unwrap(), "--dim", "8", "--iterations",
            "10000", "--checkpoint-dir", ckpts.to_str().unwrap(), "--resume",
        ]);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("resumed from checkpoint"), "{text}");
        assert_eq!(metrics_line(&text), first, "resume changed the result");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_rollout_without_a_fleet_spec_is_an_io_error() {
        let (code, text) = run_cmd(&[
            "fleet", "rollout", "--bundle", "/nonexistent-bundle.json", "--fleet",
            "/nonexistent-fleet.json",
        ]);
        assert_eq!(code, 3, "{text}");
        assert!(text.contains("fleet spec"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_cmd(&["help"]);
        assert_eq!(code, 0);
        assert!(text.contains("USAGE"));
    }
}
