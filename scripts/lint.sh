#!/usr/bin/env bash
# Knob guard, then clang-tidy over every tracked translation unit, driven
# by the CMake compilation database (CMAKE_EXPORT_COMPILE_COMMANDS is on by
# default).
#
#   scripts/lint.sh              # lint all tracked .cc files
#   scripts/lint.sh src/bpf      # lint one subtree
#   BUILD_DIR=build-tidy scripts/lint.sh
#
# The knob guard fails when src/, examples/, bench/ or tests/ reads a
# HERMES_* environment variable that ALLOWED_KNOBS does not list. The list
# is empty: oracles are reached by API, never by the environment. The
# guard runs first, so minimal containers without clang-tidy still
# enforce it.
#
# Checks and naming rules live in .clang-tidy at the repo root. When
# clang-tidy is not installed (minimal containers ship only gcc) the
# script reports that and exits 0 so scripts/check.sh still passes — the
# gate is advisory where the tool exists, absent where it does not.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED_KNOBS=()
mapfile -t knobs < <(
  { grep -rhoE 'getenv\(\s*"HERMES_[A-Za-z0-9_]+"' src examples bench tests ||
      true; } |
    grep -oE 'HERMES_[A-Za-z0-9_]+' | sort -u)
unlisted=()
for k in ${knobs[@]+"${knobs[@]}"}; do
  case " ${ALLOWED_KNOBS[*]-} " in
    *" $k "*) ;;
    *) unlisted+=("$k") ;;
  esac
done
if [ ${#unlisted[@]} -gt 0 ]; then
  echo "lint: src/, examples/, bench/ or tests/ reads unlisted knob(s):" \
    "${unlisted[*]}" >&2
  echo "lint: allowed: ${ALLOWED_KNOBS[*]-(none)}" >&2
  exit 1
fi
echo "==> knob guard clean (${#knobs[@]} knobs read: ${knobs[*]-})"

TIDY=${CLANG_TIDY:-clang-tidy}
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "lint: $TIDY not found in PATH; skipping (install clang-tidy to enable)"
  exit 0
fi

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "==> configure $BUILD_DIR (for compile_commands.json)"
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi

scope=${1:-}
# Two explicit branches: the old `cond && grep || cat` pipeline silently
# fell back to "all files" semantics on a no-match scope, and under
# pipefail a no-match grep poisoned the whole pipeline's status.
if [ -n "$scope" ]; then
  mapfile -t files < <(git ls-files '*.cc' | grep -v '^third_party/' |
                       { grep "^$scope" || true; })
else
  mapfile -t files < <(git ls-files '*.cc' | grep -v '^third_party/')
fi
if [ ${#files[@]} -eq 0 ]; then
  echo "lint: no files match '${scope}'"
  exit 0
fi

# Without -header-filter clang-tidy only diagnoses the .cc under
# analysis, so header-only code (codegen.h emitters, vm.h inline
# accessors, the x86 decoder's public structs) never got linted. Scope
# it to our own tree: third_party and system headers stay excluded.
HEADER_FILTER=${HEADER_FILTER:-'.*/(src|examples|tests|bench)/.*'}

echo "==> $TIDY -p $BUILD_DIR over ${#files[@]} files (${JOBS} jobs)"
printf '%s\n' "${files[@]}" |
  xargs -P "$JOBS" -n 8 "$TIDY" -p "$BUILD_DIR" --quiet \
    -header-filter="$HEADER_FILTER"
echo "==> lint clean"
