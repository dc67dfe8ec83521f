#!/usr/bin/env bash
# Full verification sweep: lint, plain build + one ctest run over all
# labels, a ThreadSanitizer pass over the concurrency-sensitive suites,
# then any extra sanitizer sweeps requested on the command line. Each
# differential oracle (reference scheduler, copy-oracle forwarding, every
# policy) runs inside that one ctest run, chosen by API in its test.
#
#   scripts/check.sh                       # lint + plain + TSan concurrency
#   scripts/check.sh address undefined     # ... + ASan + UBSan full sweeps
#   scripts/check.sh thread                # ... + TSan over the full suite
#   LABELS=torture scripts/check.sh        # restrict to one ctest label
#
# Each sanitizer gets its own build tree (build-<san>/) so the trees can be
# reused incrementally across runs.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
LABELS=${LABELS:-'unit|property|torture'}
BUILD_DIR=${BUILD_DIR:-build}

# Configure a tree, reusing whatever generator it was first configured
# with. Passing a different -G (or inheriting a CMAKE_GENERATOR env var
# that disagrees with the cache) is a hard CMake error, and CI restores
# cached build trees that may predate a generator switch.
configure_tree() {
  local dir=$1
  shift
  local gen_args=()
  if [ -f "$dir/CMakeCache.txt" ]; then
    local gen
    gen=$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$dir/CMakeCache.txt")
    if [ -n "$gen" ]; then
      gen_args=(-G "$gen")
    fi
  fi
  cmake -B "$dir" -S . ${gen_args+"${gen_args[@]}"} "$@" >/dev/null
}

run_suite() {
  local dir=$1 san=$2
  echo "==> configure ${dir} ${san:+(sanitize=$san)}"
  configure_tree "$dir" ${san:+-DHERMES_SANITIZE="$san"}
  echo "==> build ${dir}"
  cmake --build "$dir" -j "$JOBS"
  echo "==> ctest ${dir} -L '${LABELS}'"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "$LABELS"
}

# TSan preset: only the suites that exercise cross-thread code (the WST
# counters, scheduler reads against live writers, the seeded interleaving
# explorer, shared-memory rings, the control plane, the observability
# layer's sharded counters and trace-ring readers). Much cheaper than a
# full TSan sweep, and it is where a data race would actually live.
TSAN_TESTS=(wst_test scheduler_test torture_interleave_test shm_test
            control_test obs_test)
run_tsan_concurrency() {
  local dir=${BUILD_DIR}-thread
  echo "==> configure ${dir} (sanitize=thread, concurrency suites)"
  configure_tree "$dir" -DHERMES_SANITIZE=thread
  echo "==> build ${dir}: ${TSAN_TESTS[*]}"
  cmake --build "$dir" -j "$JOBS" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "==> tsan ${t}"
    TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" "$dir/tests/$t"
  done
}

scripts/lint.sh
run_suite "$BUILD_DIR" ""
run_tsan_concurrency
for san in "$@"; do
  case "$san" in
    address|undefined|thread) run_suite "${BUILD_DIR}-$san" "$san" ;;
    *) echo "unknown sanitizer '$san' (want address|undefined|thread)" >&2
       exit 2 ;;
  esac
done
echo "==> all suites passed"
