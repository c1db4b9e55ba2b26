//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Each binary accepts `--fast` (seconds, CI-sized), `--medium` (minutes)
//! or `--paper` (full fidelity; hours for Table 2) plus `--out DIR` for the
//! JSON artifacts (default `results/`).

use clapf_eval::RunScale;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::Command;

pub mod chaos;

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
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        arch_dispatch_active: clapf_mf::arch_dispatch_active(),
        scale: scale.into(),
    }
}

/// Parsed command line shared by all binaries.
pub struct Cli {
    /// The selected run scale.
    pub scale: RunScale,
    /// Output directory for JSON artifacts.
    pub out_dir: PathBuf,
    /// Human label of the scale, for file names and logs.
    pub scale_name: &'static str,
}

impl Cli {
    /// Parses `std::env::args`, defaulting to `--fast`.
    pub fn parse() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// Like [`parse`](Cli::parse) but silently skips the listed
    /// binary-specific flags (e.g. `--tune`).
    pub fn parse_ignoring(extra_flags: &[&str]) -> Cli {
        let args: Vec<String> = std::env::args()
            .skip(1)
            .filter(|a| !extra_flags.contains(&a.as_str()))
            .collect();
        Self::from_args(&args)
    }

    /// Parses an explicit argument list (testable).
    pub fn from_args(args: &[String]) -> Cli {
        let mut scale = RunScale::fast();
        let mut scale_name = "fast";
        let mut out_dir = PathBuf::from("results");
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--fast" => {
                    scale = RunScale::fast();
                    scale_name = "fast";
                }
                "--medium" => {
                    scale = RunScale::medium();
                    scale_name = "medium";
                }
                "--paper" => {
                    scale = RunScale::paper();
                    scale_name = "paper";
                }
                "--out" => {
                    out_dir =
                        PathBuf::from(it.next().expect("--out requires a directory argument"));
                }
                "--seed" => {
                    scale.seed = it
                        .next()
                        .expect("--seed requires a value")
                        .parse()
                        .expect("--seed must be an integer");
                }
                other => {
                    eprintln!("warning: ignoring unknown argument {other:?}");
                }
            }
        }
        Cli {
            scale,
            out_dir,
            scale_name,
        }
    }

    /// Path of the JSON artifact for an experiment name.
    pub fn json_path(&self, experiment: &str) -> PathBuf {
        self.out_dir
            .join(format!("{experiment}-{}.json", self.scale_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_is_fast() {
        let cli = Cli::from_args(&[]);
        assert_eq!(cli.scale_name, "fast");
        assert_eq!(cli.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn paper_flag_selects_full_scale() {
        let cli = Cli::from_args(&args(&["--paper", "--out", "/tmp/x"]));
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
        let cli = Cli::from_args(&args(&["--seed", "99"]));
        assert_eq!(cli.scale.seed, 99);
    }
}
