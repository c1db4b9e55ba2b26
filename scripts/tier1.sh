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

smoke_dir="$(mktemp -d)"
# The perfbench build rewrites perfbench/Cargo.lock when it is stale; put
# the committed copy back however this script exits.
cp perfbench/Cargo.lock "$smoke_dir/perfbench.Cargo.lock"
trap 'cp "$smoke_dir/perfbench.Cargo.lock" perfbench/Cargo.lock; rm -rf "$smoke_dir"' EXIT

echo "==> perfbench build: the benchmark compiles against the training API"
# perfbench/ trains through Clapf::fit_observed and reads FitReport,
# PhaseTimings::sweep_secs and TripleSampler; an API break must fail here,
# not in the benchmark run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
  --manifest-path perfbench/Cargo.toml

# The telemetry smoke (fit --metrics-out + clapf trace) and the crash smoke
# (SIGKILL mid-train, resume, identical metrics) are
# crates/clapf-cli/tests/train_smoke.rs, run by cargo test.

# The serve smoke (fit --save, serve, /healthz, /recommend, /metrics,
# POST /shutdown) and the trace smoke (serve --trace-sample 1: the
# /debug/traces stage breakdown, /debug/slow and the /metrics exemplars
# naming listed traces) are crates/clapf-cli/tests/serve_smoke.rs, run by
# cargo test.

echo "==> overhead gate: sampled tracing <=2% end-to-end at a 1-in-64 sample"
# The binary asserts bit identity itself (the four fits learn identical
# weights; traced bodies equal untraced ones) and exits non-zero when the
# sampled trace overhead exceeds the 2% bound. It stays here rather than in
# cargo test: the debug build cargo test runs takes minutes, not ~25 s, and
# a 2% gate measured on unoptimized code says little about the release one.
target/release/overhead --fast --out "$smoke_dir/overhead" > "$smoke_dir/overhead.log" 2>&1 \
  || { echo "overhead gate failed:" >&2; cat "$smoke_dir/overhead.log" >&2; exit 1; }

echo "==> epoch: Table 2's per-epoch times and the micro-rows, interleaved"
# The binary exits 1 unless every lane did bit-identical work in every
# round (each fit returns the same weights' norm, each micro-row the same
# folded outputs). The committed ledger is results/BENCH_epoch.json.
target/release/epoch --fast --out "$smoke_dir/epoch" > "$smoke_dir/epoch.log" 2>&1 \
  || { echo "epoch failed:" >&2; cat "$smoke_dir/epoch.log" >&2; exit 1; }

# The serve_conns smoke (2,000 simultaneous keep-alive connections, every
# body byte-equal to the offline list, no server thread left after
# shutdown) is crates/bench/tests/serve_conns.rs, run by cargo test.

# The scale smoke (scale --smoke: streaming build, mmap open, file-backed
# fit, SIMD eval, and its report's smoke row) is
# crates/bench/tests/smokes.rs, run by cargo test.

# The fleet smoke (fleet serve --replicas 2: router /healthz, /recommend
# across both replicas, a rollout under load with zero non-200s, kill -9 of
# a replica and its restart, drain with no leaked replica) is
# crates/clapf-cli/tests/fleet_smoke.rs, run by cargo test.

# The chaos smoke (chaos --smoke: a seeded fault schedule against a
# 2-replica fleet under load; the binary asserts the resilience invariants,
# and the report must show zero mixed-generation responses and a hedge that
# fired and won) is crates/bench/tests/smokes.rs, run by cargo test.

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
