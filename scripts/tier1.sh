#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
#   scripts/tier1.sh            # build + tests + clippy + perfbench build + smokes
#
# Mirrors ROADMAP.md's tier-1 definition (release build, full test suite)
# and adds a warnings-as-errors clippy pass over every workspace target.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> perfbench build: the benchmark compiles against the training API"
# perfbench/ trains through Clapf::fit_observed and reads FitReport,
# PhaseTimings::sweep_secs and TripleSampler; an API break must fail here,
# not in the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
  --manifest-path perfbench/Cargo.toml

# The telemetry smoke (fit --metrics-out + clapf trace) and the crash smoke
# (SIGKILL mid-train, resume, identical metrics) are
# crates/clapf-cli/tests/train_smoke.rs, run by cargo test.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
clapf=target/release/clapf

# The serve smoke (fit --save, serve, /healthz, /recommend, /metrics,
# POST /shutdown) and the trace smoke (serve --trace-sample 1: the
# /debug/traces stage breakdown, /debug/slow and the /metrics exemplars
# naming listed traces) are crates/clapf-cli/tests/serve_smoke.rs, run by
# cargo test.

echo "==> overhead gate: sampled tracing <=2% end-to-end at a 1-in-64 sample"
# The binary asserts bit identity itself (the four fits learn identical
# weights; traced bodies equal untraced ones) and exits non-zero when the
# sampled trace overhead exceeds the 2% bound.
target/release/overhead --fast --out "$smoke_dir/overhead" > "$smoke_dir/overhead.log" 2>&1 \
  || { echo "overhead gate failed:" >&2; cat "$smoke_dir/overhead.log" >&2; exit 1; }

echo "==> serve_conns smoke: ~2k concurrent conns on the event loop"
# The binary asserts the gates itself: every response bit-identical to the
# offline evaluator across keep-alive rounds, the serve.conns gauge reaches
# the connection count, and no server thread survives graceful shutdown.
target/release/serve_conns > /dev/null

echo "==> scale smoke: streaming build + mmap open + SIMD eval gates"
# The binary itself asserts the smoke gates: nonzero training throughput,
# mmap peak-RSS delta < 60% of the heap build, SIMD/scalar agreement.
target/release/scale --smoke --out "$smoke_dir/scale" > /dev/null
[ -s "$smoke_dir/scale/BENCH_scale.json" ] \
  || { echo "scale smoke: no BENCH_scale.json written" >&2; exit 1; }
grep -q '"tag": *"smoke"' "$smoke_dir/scale/BENCH_scale.json" \
  || { echo "scale smoke: smoke row missing from report" >&2; exit 1; }

# The fleet smoke (fleet serve --replicas 2: router /healthz, /recommend
# across both replicas, a rollout under load with zero non-200s, kill -9 of
# a replica and its restart, drain with no leaked replica) is
# crates/clapf-cli/tests/fleet_smoke.rs, run by cargo test.

echo "==> chaos smoke: seeded fault schedule against a 2-replica fleet under load"
# The binary asserts the resilience invariants itself — zero
# mixed-generation responses, zero untyped errors, bounded per-event-class
# error rates, ring convergence within one lease TTL of each kill, and
# byte-identical responses after full recovery — and exits non-zero on any
# violation. The greps below just pin the report's shape.
target/release/chaos --smoke --clapf "$clapf" --out "$smoke_dir/chaos" \
  > "$smoke_dir/chaos.log" 2>&1 \
  || { echo "chaos smoke: invariants failed:" >&2; cat "$smoke_dir/chaos.log" >&2; exit 1; }
chaos_json="$smoke_dir/chaos/BENCH_fleet_chaos.json"
grep -q '"pass": *true' "$chaos_json" \
  || { echo "chaos smoke: report not passing" >&2; exit 1; }
grep -q '"mixed_generation_responses": *0' "$chaos_json" \
  || { echo "chaos smoke: mixed-generation responses detected" >&2; exit 1; }
grep -q '"recovered_byte_identical": *true' "$chaos_json" \
  || { echo "chaos smoke: post-recovery responses not byte-identical" >&2; exit 1; }
grep -q '"readmissions": *[1-9]' "$chaos_json" \
  || { echo "chaos smoke: no evicted replica was ever re-admitted" >&2; exit 1; }

echo "==> cargo test -q -p clapf-mf --no-default-features"
# The portable kernels must stand alone with the simd feature off, and on
# an AVX2 host this is the only run that tests them as the dispatched path.
cargo test -q -p clapf-mf --no-default-features

echo "==> cargo build -p clapf-serve --no-default-features"
# The serve crate must build without the epoll FFI (scan-poller fallback).
cargo build -p clapf-serve --no-default-features

echo "==> cargo test -q -p clapf-serve --no-default-features"
# Without the epoll FFI the scan poller is the only transport: the whole
# serve suite must pass on it too.
cargo test -q -p clapf-serve --no-default-features

echo "tier-1: OK"
