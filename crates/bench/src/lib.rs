//! Shared plumbing for the table/figure regeneration and perf binaries.
//!
//! Each binary accepts `--fast` (seconds, CI-sized), `--medium` (minutes)
//! or `--paper` (full fidelity; hours for Table 2) plus `--out DIR` for the
//! JSON artifacts (default `results/`) and `--seed N`. A binary declares
//! any flags of its own as rows of the same flag table `clapf` uses
//! ([`clapf_cli::flags`]) in [`Cli::parse_with`]; anything else is an
//! error (exit 2), never silently ignored.
//!
//! The perf binaries share one synthetic bundle ([`fixture`]), one
//! interleaved timing loop ([`timing`]) and one report writer
//! ([`write_report`]); they speak HTTP through `clapf-serve`'s client
//! ([`clapf_serve::Conn`], [`clapf_serve::call`]) with [`HTTP_TIMEOUT`].

use clapf_cli::flags::{self, Arg, Flag, Kind};
use clapf_eval::{report, RunScale};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

pub mod chaos;
pub mod fixture;
pub mod timing;

/// Socket timeout for every bench HTTP connection: generous, so a wedged
/// server fails the run instead of hanging it.
pub const HTTP_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Where a benchmark result came from, written into its JSON report.
#[derive(Debug, Serialize)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or a note when not run inside a git checkout.
    pub commit: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// Whether the SIMD scoring kernels were selected at run time.
    pub arch_dispatch_active: bool,
    /// The run scale (`fast`, `medium` or `paper`).
    pub scale: String,
}

/// The trimmed stdout of a successful command, or `"unknown"`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process (0 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The leading number of a `/proc/self/status` field (`VmHWM` in kB,
/// `Threads`, …); `None` where the file or field is missing (non-Linux).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Provenance of a run at `scale`, taken from the working directory.
pub fn provenance(scale: &str) -> Provenance {
    // Only ask git inside a git checkout: elsewhere git would walk up and
    // report an unrelated repository's commit.
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    Provenance {
        commit,
        rustc: command_output("rustc", &["-V"]),
        nproc: nproc(),
        arch_dispatch_active: clapf_mf::arch_dispatch_active(),
        scale: scale.into(),
    }
}

/// `body` as a JSON object whose first field is `provenance(scale)`.
fn with_provenance(scale: &str, body: &impl Serialize) -> Value {
    let mut fields = vec![("provenance".to_string(), provenance(scale).to_value())];
    match body.to_value() {
        Value::Map(rest) => fields.extend(rest),
        other => fields.push(("report".to_string(), other)),
    }
    Value::Map(fields)
}

/// Writes a `BENCH_*` report to `path`: `body`'s fields, headed by the
/// run's [`provenance`]. Every perf binary's ledger goes through here.
pub fn write_report(path: &Path, scale: &str, body: &impl Serialize) {
    report::write_json(path, &with_provenance(scale, body))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Prints a usage (or environment) error and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// This binary's name, for argument errors.
fn program() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let name = Path::new(&argv0).file_name().unwrap_or_default();
    name.to_string_lossy().into_owned()
}

/// Parses `std::env::args` against a binary's own flag `table` (empty
/// for a binary that takes no arguments), exiting 2 with the error. For
/// the binaries that do not take the [`Cli`] flags.
pub fn parse_own<const N: usize>(table: &[Flag; N]) -> [Arg; N] {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flags::parse_all(&program(), table, &args).unwrap_or_else(|e| usage_error(&e))
}

/// The flags every [`Cli`] binary accepts, ahead of its own.
#[rustfmt::skip]
const SHARED: [Flag; 5] = [
    Flag::switch("--fast", "seconds, CI-sized (the default)"),
    Flag::switch("--medium", "minutes"),
    Flag::switch("--paper", "full fidelity; hours for Table 2"),
    Flag::defaulted("--out", "DIR", Kind::Path, "results", "directory for the JSON artifacts"),
    Flag::optional("--seed", "N", Kind::Seed, "seed; the scale's own if unset"),
];

/// Parsed command line shared by all binaries.
pub struct Cli {
    /// The selected run scale.
    pub scale: RunScale,
    /// Output directory for JSON artifacts.
    pub out_dir: PathBuf,
    /// Human label of the scale, for file names and logs.
    pub scale_name: &'static str,
    /// The binary's own flags, one per row of its table.
    own: Vec<Arg>,
}

impl Cli {
    /// Parses `std::env::args` with no binary-specific flags.
    pub fn parse() -> Cli {
        Self::parse_with(&[])
    }

    /// Parses `std::env::args`, accepting the binary's `own` flags (e.g.
    /// `--tune`, `--fleet N`) besides the shared ones. Exits 2 naming the
    /// first argument it does not know.
    pub fn parse_with(own: &[Flag]) -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args_with(&args, own).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses an explicit argument list (testable form of
    /// [`parse_with`](Cli::parse_with)).
    pub fn from_args_with(args: &[String], own: &[Flag]) -> Result<Cli, String> {
        let table: Vec<Flag> = SHARED.iter().chain(own).copied().collect();
        let mut parsed = flags::parse(&program(), &table, args)?;
        let own = parsed.split_off(SHARED.len());
        let [fast, medium, paper, out, seed]: [Arg; 5] = parsed
            .try_into()
            .unwrap_or_else(|_| unreachable!("one Arg per shared row"));
        // The last scale flag given wins; none means fast.
        let scale_name = [(fast, "fast"), (medium, "medium"), (paper, "paper")]
            .into_iter()
            .filter_map(|(a, name)| Some((a.at?, name)))
            .max()
            .map_or("fast", |(_, name)| name);
        let mut scale = match scale_name {
            "medium" => RunScale::medium(),
            "paper" => RunScale::paper(),
            _ => RunScale::fast(),
        };
        if let Some(seed) = seed.opt_int() {
            scale.seed = seed;
        }
        Ok(Cli {
            scale,
            out_dir: out.path(),
            scale_name,
            own,
        })
    }

    fn own(&self, flag: &str) -> Option<&Arg> {
        self.own.iter().find(|a| a.name == flag)
    }

    /// Whether the binary-specific `switch` was given.
    pub fn has(&self, switch: &str) -> bool {
        self.own(switch).is_some_and(Arg::on)
    }

    /// The value of the binary-specific `flag`, as given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.own(flag)?.raw.as_deref()
    }

    /// The checked integer value of `flag`, or `default`; a value that
    /// does not fit `T` is a usage error (exit 2).
    pub fn int<T: TryFrom<u64>>(&self, flag: &str, default: T) -> T {
        match self.own(flag).and_then(Arg::opt_int) {
            None => default,
            Some(n) => T::try_from(n)
                .unwrap_or_else(|_| usage_error(&format!("{flag} {n} is out of range"))),
        }
    }

    /// Path of the JSON artifact for an experiment name.
    pub fn json_path(&self, experiment: &str) -> PathBuf {
        self.out_dir
            .join(format!("{experiment}-{}.json", self.scale_name))
    }

    /// Writes the `BENCH_{name}.json` report into the output directory
    /// through [`write_report`].
    pub fn write_report(&self, name: &str, body: &impl Serialize) {
        write_report(
            &self.out_dir.join(format!("BENCH_{name}.json")),
            self.scale_name,
            body,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_cli::flags::parse_int;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_fast() {
        let cli = Cli::from_args_with(&[], &[]).unwrap();
        assert_eq!(cli.scale_name, "fast");
        assert_eq!(cli.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn paper_flag_selects_full_scale() {
        let cli = Cli::from_args_with(&args(&["--paper", "--out", "/tmp/x"]), &[]).unwrap();
        assert_eq!(cli.scale_name, "paper");
        assert_eq!(cli.scale.dataset_shrink, 1);
        assert_eq!(
            cli.json_path("table2"),
            PathBuf::from("/tmp/x/table2-paper.json")
        );
    }

    #[test]
    fn provenance_names_toolchain_cores_and_scale() {
        let p = provenance("fast");
        assert!(p.rustc.starts_with("rustc ") || p.rustc == "unknown", "{p:?}");
        assert!(p.nproc >= 1);
        assert_eq!(p.scale, "fast");
        assert!(!p.commit.is_empty());
    }

    #[test]
    fn seed_override() {
        let cli = Cli::from_args_with(&args(&["--seed", "99"]), &[]).unwrap();
        assert_eq!(cli.scale.seed, 99);
        let cli =
            Cli::from_args_with(&args(&["--seed", "9007199254740993", "--medium"]), &[]).unwrap();
        assert_eq!(cli.scale.seed, 9_007_199_254_740_993, "no float rounding");
        assert_eq!(cli.scale_name, "medium");
    }

    #[test]
    fn the_last_scale_flag_wins() {
        for (argv, name) in [
            (&["--paper", "--fast"][..], "fast"),
            (&["--fast", "--medium"], "medium"),
        ] {
            assert_eq!(
                Cli::from_args_with(&args(argv), &[]).unwrap().scale_name,
                name,
                "{argv:?}"
            );
        }
    }

    #[test]
    fn unknown_and_malformed_arguments_are_named() {
        for (argv, named) in [
            (&["--chaos"][..], "--chaos"),
            (&["--fast", "--clapf", "x"], "--clapf"),
            (&["stray"], "stray"),
            (&["--seed", "-3"], "-3"),
            (&["--seed", "2.7"], "2.7"),
            (&["--out"], "--out requires a value"),
        ] {
            let err = Cli::from_args_with(&args(argv), &[])
                .err()
                .expect("must fail");
            assert!(err.contains(named), "{argv:?}: {err}");
        }
    }

    #[test]
    fn binaries_declare_their_own_flags() {
        let cli = Cli::from_args_with(
            &args(&["--tune", "--fleet", "4", "--fast"]),
            &[
                Flag::switch("--tune", ""),
                Flag::switch("--smoke", ""),
                Flag::optional("--fleet", "N", Kind::COUNT, ""),
            ],
        )
        .unwrap();
        assert!(cli.has("--tune") && !cli.has("--smoke"));
        assert_eq!(cli.value("--fleet"), Some("4"));
        assert_eq!(cli.int("--fleet", 3usize), 4);
        assert_eq!(cli.int("--other", 3usize), 3);
        assert!(parse_int::<usize>("--fleet", "-1").is_err());
        assert!(parse_int::<usize>("--fleet", "1.5").is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_status_reads_leading_numbers() {
        assert!(proc_status("Threads").is_some_and(|n| n >= 1));
        assert!(proc_status("VmHWM").is_some_and(|kb| kb > 0));
        assert_eq!(proc_status("NoSuchField"), None);
    }

    #[test]
    fn reports_lead_with_provenance() {
        #[derive(Serialize)]
        struct Body {
            qps: f64,
        }
        let Value::Map(fields) = with_provenance("fast", &Body { qps: 1.5 }) else {
            panic!("a report is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["provenance", "qps"]);
    }
}
