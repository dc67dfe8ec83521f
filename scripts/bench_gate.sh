#!/usr/bin/env bash
# Bench-regression gate: run the fast bench subset in --json mode, compare
# against the checked-in baseline, and fail on regression. Also self-tests
# that the gate actually trips by re-checking with a 20% injected
# regression (--scale 1.2) and requiring failure.
#
#   scripts/bench_gate.sh                 # compare vs bench/baseline.json
#   scripts/bench_gate.sh --refresh       # rewrite bench/baseline.json
#   BUILD_DIR=build-ninja scripts/bench_gate.sh
#
# The subset is chosen to be fast (<2 min) yet cover the paper's headline
# numbers and the observability-overhead budget:
#   fig12_unit_cost   closed-form unit-cost model (pure determinism check)
#   fig13_load_sd     the Fig. 13 SD table (full sim pipeline, all modes)
#   table5_overhead   component CPU shares + obs_overhead_pct (< 5% budget)
#   analysis_cost     verifier cost table (abstract-interpreter behavior)
#   dispatch_path     eBPF plan dispatch cost; gates the deterministic
#                     plan shape and insns/fused/elided-per-dispatch rates
#   sched_path        fast-vs-reference schedule_and_sync cost; gates the
#                     sweep sync/suppression counts and bitmap checksums
#   fleet_scale       multi-LB fleet at 100k conns (FLEET_SCALE_CONNS):
#                     gates connection counts, PCC violation counts and
#                     fleet imbalance; the 1M leg runs nightly in CI
#   proxy_path        zero-copy L7 forwarding vs the copy oracle; gates
#                     bytes-memcpy'd/request, stream-match flags,
#                     allocs/request, and the sim leg's data-plane counts
#                     (the >=2x speedup check is enforced by the bench
#                     binary itself, which exits non-zero on miss)
#   ablation_policy   per-policy dispatch programs (cascade/p2c/weighted/
#                     queue_est); gates insns-per-dispatch + selection
#                     counts over a fixed ctx sweep and the hetero-fleet
#                     Fig. 13-style CPU/conn SD per policy
# Comparison policy (tolerances, wall-clock exclusions) lives in
# bench/bench_gate_check.cc.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BASELINE=${BASELINE:-bench/baseline.json}
GATE_BENCHES=(fig12_unit_cost fig13_load_sd table5_overhead analysis_cost
              dispatch_path sched_path fleet_scale proxy_path
              ablation_policy)

# The gate runs the fleet bench at smoke scale; deterministic metrics scale
# with the connection count, so the baseline is only valid at this value.
export FLEET_SCALE_CONNS=${FLEET_SCALE_CONNS:-100000}

refresh=0
if [ "${1:-}" = "--refresh" ]; then
  refresh=1
  shift
fi

current=$(mktemp --suffix=.json)
trap 'rm -f "$current"' EXIT

# table5's microbenchmarks are not part of the gate's JSON metrics; trim
# them down so the gate stays fast.
OUT="$current" BUILD_DIR="$BUILD_DIR" \
  scripts/bench_report.sh "${GATE_BENCHES[@]}"

if [ $refresh -eq 1 ]; then
  cp "$current" "$BASELINE"
  echo "==> refreshed $BASELINE"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "bench_gate: no baseline at $BASELINE" >&2
  echo "bench_gate: run 'scripts/bench_gate.sh --refresh' and commit it" >&2
  exit 2
fi

cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 4)" \
  --target bench_gate_check >/dev/null
CHECK="$BUILD_DIR/bench/bench_gate_check"

echo "==> gate: current vs $BASELINE"
"$CHECK" "$BASELINE" "$current"

echo "==> gate self-test: injected 20% regression must FAIL"
if "$CHECK" "$BASELINE" "$current" --scale 1.2 >/dev/null; then
  echo "bench_gate: SELF-TEST FAILED — a 20% regression passed the gate" >&2
  exit 1
fi
echo "==> gate self-test tripped as expected"
echo "==> bench gate passed"
