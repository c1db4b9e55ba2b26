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
"$clapf" generate --dataset ml100k --shrink 24 --out "$smoke_dir/data.csv" >/dev/null

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

echo "==> fleet smoke: router + 2 replicas, rollout under load, failover, drain"
serve_get() {  # bare-TCP GET via bash /dev/tcp: no curl dependency
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET %s HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3
  exec 3>&-
}
user="$(sed -n '2p' "$smoke_dir/data.csv" | cut -d, -f1)"
"$clapf" fit --data "$smoke_dir/data.csv" --dim 8 --iterations 20000 \
  --save "$smoke_dir/model.json" >/dev/null
# A second fitted model gives the rollout a candidate with a new fingerprint.
"$clapf" fit --data "$smoke_dir/data.csv" --dim 8 --iterations 20000 --seed 7 \
  --save "$smoke_dir/model2.json" >/dev/null
"$clapf" fleet serve --load "$smoke_dir/model.json" --replicas 2 \
  --addr 127.0.0.1:0 --dir "$smoke_dir/fleet" > "$smoke_dir/fleet.log" 2>&1 &
fleet_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's#^listening on http://##p' "$smoke_dir/fleet.log" 2>/dev/null || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "fleet smoke: router never announced its port" >&2; exit 1; }
serve_get /healthz | grep -q '"role":"router"' \
  || { echo "fleet smoke: router /healthz failed" >&2; exit 1; }
# Requests across the user space route through the ring to both replicas.
for u in $(cut -d, -f1 "$smoke_dir/data.csv" | sort -u | head -8); do
  serve_get "/recommend/$u?k=5" | grep -q '"items":\[' \
    || { echo "fleet smoke: /recommend $u via router failed" >&2; exit 1; }
done
# Roll out the candidate while a loader hammers the router; every response
# during the two-phase flip must be a 200 — zero dropped requests.
rm -f "$smoke_dir/rollout.done"
(
  fails=0; n=0
  while [ ! -f "$smoke_dir/rollout.done" ]; do
    serve_get "/recommend/$user?k=5" | head -1 | grep -q ' 200 ' \
      || fails=$((fails + 1))
    n=$((n + 1))
  done
  echo "$fails $n" > "$smoke_dir/loader_result"
) &
loader_pid=$!
"$clapf" fleet rollout --fleet "$smoke_dir/fleet/fleet.json" \
  --bundle "$smoke_dir/model2.json" > "$smoke_dir/rollout.out" \
  || { touch "$smoke_dir/rollout.done"; \
       echo "fleet smoke: rollout failed:" >&2; cat "$smoke_dir/rollout.out" >&2; exit 1; }
touch "$smoke_dir/rollout.done"
wait "$loader_pid"
grep -q 'fleet now serves fingerprint' "$smoke_dir/rollout.out" \
  || { echo "fleet smoke: rollout reported no fingerprint" >&2; exit 1; }
read -r loader_fails loader_n < "$smoke_dir/loader_result"
[ "$loader_n" -gt 0 ] \
  || { echo "fleet smoke: rollout loader sent no requests" >&2; exit 1; }
[ "$loader_fails" -eq 0 ] \
  || { echo "fleet smoke: $loader_fails/$loader_n requests failed during rollout" >&2; exit 1; }
# Kill one replica: the router masks it (continued service) and the
# supervisor restarts it into the same ring slot.
rep_pid="$(sed -n 's/^replica 0: pid \([0-9]*\) .*/\1/p' "$smoke_dir/fleet.log")"
[ -n "$rep_pid" ] || { echo "fleet smoke: no replica 0 pid in log" >&2; exit 1; }
kill -9 "$rep_pid"
for u in $(cut -d, -f1 "$smoke_dir/data.csv" | sort -u | head -8); do
  serve_get "/recommend/$u?k=5" | grep -q '"items":\[' \
    || { echo "fleet smoke: /recommend $u failed after replica kill" >&2; exit 1; }
done
for _ in $(seq 1 100); do
  grep -q 'replica 0 back on' "$smoke_dir/fleet.log" && break
  sleep 0.1
done
grep -q 'replica 0 back on' "$smoke_dir/fleet.log" \
  || { echo "fleet smoke: supervisor never restarted replica 0" >&2; exit 1; }
# Graceful drain: router shutdown stops the supervisor, which drains every
# replica; nothing may leak.
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf 'POST /shutdown HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n' >&3
cat <&3 >/dev/null
exec 3>&-
wait "$fleet_pid" \
  || { echo "fleet smoke: fleet exited non-zero" >&2; exit 1; }
grep -q 'fleet drained and stopped' "$smoke_dir/fleet.log" \
  || { echo "fleet smoke: no drain message" >&2; exit 1; }
! pgrep -f "serve --load $smoke_dir" >/dev/null \
  || { echo "fleet smoke: leaked replica processes" >&2; exit 1; }

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

echo "==> cargo build -p clapf-mf --no-default-features"
# The portable kernels must stand alone with the simd feature off.
cargo build -p clapf-mf --no-default-features

echo "==> cargo build -p clapf-serve --no-default-features"
# The serve crate must build without the epoll FFI (scan-poller fallback).
cargo build -p clapf-serve --no-default-features

echo "==> cargo test -q -p clapf-serve --no-default-features"
# Without the epoll FFI the scan poller is the only transport: the whole
# serve suite must pass on it too.
cargo test -q -p clapf-serve --no-default-features

echo "tier-1: OK"
