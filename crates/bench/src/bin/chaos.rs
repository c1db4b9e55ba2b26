//! Deterministic chaos soak for the fleet resilience layer (ISSUE 10).
//!
//! Boots a router + N `clapf serve` child processes, puts them under
//! closed-loop load, replays a seeded schedule of fault events (kill -9,
//! hang, slow-read, torn bundle commit, heartbeat blackhole), and asserts
//! the resilience invariants — see [`bench::chaos`] for the full list.
//! The per-event-class error rates, times-to-recover and the hedge win
//! rate land in `results/BENCH_fleet_chaos.json`; the process exits
//! non-zero if any invariant fails.
//!
//! Flags beyond the shared bench CLI:
//!
//! * `--smoke` — the tier-1 shape: 2 replicas, short windows, ~12s.
//!   Without it the run is the acceptance soak: 3 replicas, ≥30s.
//! * `--clapf PATH` — the `clapf` binary to spawn replicas from
//!   (defaults to a sibling of this binary, or `$CLAPF_BIN`).

use bench::chaos::{locate_clapf, run_chaos, ChaosOptions};
use bench::Cli;
use clapf_cli::flags::{Flag, Kind};
use std::path::PathBuf;

fn main() {
    let cli = Cli::parse_with(&[
        Flag::switch("--smoke", "2 replicas, short windows"),
        Flag::optional("--clapf", "PATH", Kind::Path, "clapf binary to spawn"),
    ]);
    let smoke = cli.has("--smoke");
    // A missing binary or a fleet that never boots is an environment
    // problem (exit 2), not an invariant failure (exit 1).
    let exe = locate_clapf(cli.value("--clapf").map(PathBuf::from))
        .unwrap_or_else(|e| bench::usage_error(&format!("chaos: {e}")));

    let opts = if smoke {
        ChaosOptions::smoke(exe, cli.scale.seed)
    } else {
        ChaosOptions::soak(exe, cli.scale.seed)
    };
    eprintln!(
        "chaos: {} run, seed {}, {} replicas from {}",
        opts.label,
        opts.seed,
        opts.replicas,
        opts.exe.display()
    );
    let chaos = run_chaos(&opts).unwrap_or_else(|e| bench::usage_error(&format!("chaos: {e}")));

    for ev in &chaos.events {
        eprintln!(
            "{:>20}: replica-{} at t+{:.1}s, {} req, error rate {:.3} (bound {:.2}), \
             recovered in {} ms{}",
            ev.class,
            ev.replica,
            ev.at_secs,
            ev.requests,
            ev.error_rate,
            ev.error_bound,
            ev.time_to_recover_ms,
            match ev.converged_within_lease {
                Some(true) => ", converged within lease",
                Some(false) => ", CONVERGENCE LATE",
                None => "",
            },
        );
    }
    eprintln!(
        "chaos: {} requests in {:.1}s — {} typed 503s, {} untyped, {} degraded, {} mixed; \
         hedges {}/{} won ({:.0}%), breaker {} trips / {} closes, {} lease expirations, \
         {} readmissions",
        chaos.requests,
        chaos.duration_secs,
        chaos.errors_typed,
        chaos.errors_untyped,
        chaos.degraded_responses,
        chaos.invariants.mixed_generation_responses,
        chaos.hedge_wins,
        chaos.hedge_fired,
        chaos.hedge_win_rate * 100.0,
        chaos.breaker_trips,
        chaos.breaker_closes,
        chaos.lease_expirations,
        chaos.readmissions,
    );

    cli.write_report("fleet_chaos", &chaos);

    if !chaos.pass {
        for f in &chaos.failures {
            eprintln!("chaos: FAIL {f}");
        }
        std::process::exit(1);
    }
    eprintln!("chaos: all invariants held");
}
