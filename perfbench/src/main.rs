//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <train_dss|fleet_hot>
//!           --seed N --seconds S --trace 0|1 [--repeat R]
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for `--seconds`,
//! checks every output, and prints a human-readable report followed by one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics, timed from outside each crate's public API plus the counters
//! and traces the servers expose, and fails unless the layer rows add up
//! to the end-to-end time. `--repeat R` runs the workload R times in fresh
//! processes on seeds N..N+R and prints each metric's median and quartile
//! spread.

mod check;
mod load;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// The layer rows plus residual must match the end-to-end time this well.
pub const LAYER_SUM_TOLERANCE: f64 = 0.10;
/// Failure messages kept per run; every failure is still counted.
const MAX_ERRORS: usize = 20;

/// End-to-end metrics (`--trace 0`), every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("holdout_map", "ratio"),
];

/// Per-layer metrics (`--trace 1`), every workload. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("clapf-data.generate_s", "s"),
    ("clapf-data.split_s", "s"),
    ("core.sweep_ns_per_step", "ns"),
    ("core.steps", "count"),
    ("core.epochs", "count"),
    ("clapf-sampling.complete_ns", "ns"),
    ("clapf-sampling.complete_calls", "count"),
    ("clapf-sampling.share", "ratio"),
    ("clapf-sampling.refresh_ms", "ms"),
    ("clapf-sampling.cold_refresh_ms", "ms"),
    ("clapf-sampling.refresh_calls", "count"),
    ("clapf-sampling.negative_rejections_per_draw", "ratio"),
    ("clapf-sampling.negative_fallback_ratio", "ratio"),
    ("clapf-sampling.positive_depth_mean", "rank"),
    ("clapf-mf.score_us_per_user", "us"),
    ("clapf-metrics.topk_us_per_user", "us"),
    ("clapf-serve.parse_us", "us"),
    ("clapf-serve.cache_us", "us"),
    ("clapf-serve.queue_us", "us"),
    ("clapf-serve.score_us", "us"),
    ("clapf-serve.wake_us", "us"),
    ("clapf-serve.render_us", "us"),
    ("clapf-serve.write_us", "us"),
    ("clapf-serve.net_residual_us", "us"),
    ("clapf-serve.cache_hit_ratio", "ratio"),
    ("clapf-serve.batch_mean_size", "count"),
    ("clapf-serve.batch_hold_us", "us"),
    ("clapf-serve.coalesced", "count"),
    ("clapf-serve.shed", "count"),
    ("clapf-serve.bundle_load_s", "s"),
    ("clapf-fleet.hop_us", "us"),
    ("clapf-fleet.pick_us", "us"),
    ("clapf-fleet.upstream_us", "us"),
    ("clapf-fleet.hedge_fired", "count"),
    ("clapf-fleet.hedge_win_ratio", "ratio"),
    ("clapf-fleet.retries", "count"),
    ("clapf-fleet.shed", "count"),
    ("clapf-fleet.max_replica_share", "ratio"),
    ("clapf-telemetry.trace_overhead_ratio", "ratio"),
];

pub const WORKLOADS: &[&str] = &["train_dss", "fleet_hot"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    errors: Vec<String>,
    layer_sum: Option<Result<f64, String>>,
}

impl Outcome {
    /// Records a metric; `name` must be declared in `END_TO_END` or
    /// `PER_LAYER`.
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.metrics.insert(declared, value + 0.0);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Counts `attempted` operations of which `failed` failed or answered
    /// wrongly; `what` describes the failures.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.errors.len() < MAX_ERRORS {
            self.errors.push(what());
        }
    }

    /// One correctness check, counted as one operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    pub fn layer_sum(&mut self, r: Result<f64, String>) {
        self.layer_sum = Some(r);
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The output of a command, trimmed, or `"unknown"`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a result came from: commit, toolchain, cores, kernel dispatch.
fn provenance(args: &Args) -> String {
    // Only ask git inside a git checkout: elsewhere git would walk up and
    // report an unrelated repository's commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\":{:?},\"rustc\":{:?},\"nproc\":{nproc},\"arch_dispatch_active\":{},\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        commit,
        command_output("rustc", &["-V"]),
        clapf_mf::arch_dispatch_active(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

/// A per-run directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create .bench_work");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run(args: &Args) -> Outcome {
    let work = WorkDir::create();
    let mut out = match args.workload.as_str() {
        "train_dss" => train::run(&train::Spec::train_dss(), args),
        "fleet_hot" => serve::run(&serve::Spec::fleet_hot(), args, &work.0),
        other => unreachable!("workload {other} passed validation"),
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// Renders the result line; `Err` when a metric that must be reported is
/// missing or not finite.
fn result_line(out: &Outcome, trace: bool, correct: bool) -> Result<String, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // Layers a workload does not exercise report zero work.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        fields.push(format!(
            "{name:?}:{{\"value\":{value:?},\"unit\":{unit:?}}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    ))
}

/// `--repeat R`: the workload in R fresh processes on consecutive seeds,
/// then each metric's median and quartile spread (IQR over median).
fn repeat(args: &Args, times: usize) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..times as u64 {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .expect("run benchmark child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed: Result<serde::Value, _> = serde_json::from_str(last);
        let Ok(v) = parsed else {
            eprintln!(
                "seed {seed}: no result line\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return 1;
        };
        if check::field(&v, "correct") != Some(&serde::Value::Bool(true)) {
            eprintln!(
                "seed {seed}: incorrect run\n{stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return 1;
        }
        if let Some(serde::Value::Map(metrics)) = check::field(&v, "metrics") {
            for (name, m) in metrics {
                if let Some(x) = check::field(m, "value").and_then(check::number) {
                    values.entry(name.clone()).or_default().push(x);
                }
            }
        }
        println!("seed {seed}: {last}");
    }
    println!(
        "{:<46} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, v) in &values {
        let (q1, q3) = if v.len() >= 2 {
            stats::quartiles(v)
        } else {
            (v[0], v[0])
        };
        let spread = if v.len() >= 2 { stats::spread(v) } else { 0.0 };
        println!(
            "{name:<46} {:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}",
            stats::median(v)
        );
    }
    0
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(times) = args.repeat {
        std::process::exit(repeat(&args, times.max(1)));
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("provenance: {}", provenance(&args));
    let out = run(&args);
    for n in &out.notes {
        println!("  note: {n}");
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in declared {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<46} {v:>16.6} {unit}");
    }
    let mut correct = out.errors.is_empty() && out.failed == 0;
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    match &out.layer_sum {
        Some(Ok(gap)) => println!(
            "  layer sum: rows + residual within {:+.2}% of the end-to-end time",
            gap * 100.0
        ),
        Some(Err(e)) => {
            eprintln!("perfbench: layer-sum check failed: {e}");
            correct = false;
        }
        None if args.trace => {
            eprintln!("perfbench: the traced run produced no layer breakdown");
            correct = false;
        }
        None => {}
    }
    match result_line(&out, args.trace, correct) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn args_parse_and_validate() {
        let a = parse("--workload fleet_hot --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_hot", 9, 2.5, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload train_dss --trace 2").is_err());
        assert!(parse("--workload train_dss --seconds 0").is_err());
        assert!(parse("--workload train_dss --seed").is_err());
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match check::field(&v, key) {
                Some(serde::Value::Seq(list)) => list
                    .iter()
                    .map(
                        |m| match (check::field(m, "name"), check::field(m, "unit")) {
                            (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                                (n.clone(), u.clone())
                            }
                            other => panic!("bad metric entry {other:?}"),
                        },
                    )
                    .collect(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = match check::field(&v, "workloads") {
            Some(serde::Value::Seq(list)) => list
                .iter()
                .map(|w| match check::field(w, "name") {
                    Some(serde::Value::Str(n)) => n.clone(),
                    other => panic!("{other:?}"),
                })
                .collect(),
            other => panic!("{other:?}"),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_failed_check_counts_in_failed_and_attempted() {
        let mut out = Outcome::default();
        out.count(100, 0, || unreachable!("no failure, no message"));
        out.check(true, || unreachable!("no failure, no message"));
        assert_eq!((out.attempted, out.failed), (101, 0));
        assert!(out.errors.is_empty());
        out.check(false, || "bad MAP".into());
        out.count(10, 3, || "3 bad bodies".into());
        assert_eq!((out.attempted, out.failed), (112, 4));
        assert_eq!(out.errors, ["bad MAP", "3 bad bodies"]);
        for _ in 0..2 * MAX_ERRORS {
            out.check(false, || "again".into());
        }
        assert_eq!(out.failed, 4 + 2 * MAX_ERRORS as u64);
        assert_eq!(out.errors.len(), MAX_ERRORS);
    }

    #[test]
    fn result_line_reports_every_declared_metric() {
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = result_line(&out, false, true).unwrap();
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            check::field(&v, "attempted").and_then(check::number),
            Some(10.0)
        );
        let layers = result_line(&out, true, true).unwrap();
        assert!(
            layers.contains("\"clapf-fleet.hop_us\":{\"value\":0.0,\"unit\":\"us\"}"),
            "{layers}"
        );
        out.metrics.remove("p90_ms");
        assert!(result_line(&out, false, true).is_err());
        out.set("p90_ms", f64::NAN);
        assert!(result_line(&out, false, true).is_err());
    }
}
