#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--smoke]

Builds perfbench/ as its own CMake package under .bench_build/ on first use,
runs one workload in one process with every HERMES_* variable cleared, and
relays its report. With --trace 1 it also runs the micro benches the ledger
is cross-checked against and prints each gap. The last line of stdout is the
result object; the exit status is the runner's (0 only if every check held).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170

# Ledger per-call cost -> (micro bench, its metric for the same call).
CROSS_CHECKS = [
    ("bpf.dispatch_ns", "dispatch_path", "tier2_cost_ns"),
    ("core.sched_ns", "sched_path", "fast_steady_cost_ns"),
    ("http.request_ns", "proxy_path", "keepalive.zc_cost_ns"),
]


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("HERMES_")}


def build(env):
    if not (ROOT / "src" / "sim" / "lb.cc").is_file():
        sys.exit("perfbench: simulator sources not found under src/")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed")


def cross_check(metrics, env):
    """Compares replayed per-call costs with the micro benches' figures."""
    print("cross-check (ledger replay vs micro bench, hot caches):")
    for name, micro, key in CROSS_CHECKS:
        ours = metrics.get(name, {}).get("value", 0)
        if ours <= 0:
            print(f"  {name:18s} not exercised by this workload")
            continue
        out = BUILD / f"{micro}.json"
        out.unlink(missing_ok=True)
        # A micro bench exits non-zero when its own speedup bar fails on a
        # busy machine; its figures are still written and still comparable.
        subprocess.run([str(BUILD / micro), "--json", str(out)],
                       stdout=subprocess.DEVNULL, env=env,
                       timeout=RUN_TIMEOUT_S)
        if not out.is_file():
            print(f"  {name:18s} {micro} wrote no results")
            continue
        theirs = json.loads(out.read_text())["metrics"][key]
        gap = ours / theirs
        verdict = "GAP wider than 2x" if gap > 2 or gap < 0.5 else "within 2x"
        print(f"  {name:18s} {ours:10.1f} ns vs {micro} {key} "
              f"{theirs:10.1f} ns: {gap:5.2f}x  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken scenarios, no micro-bench cross-check")
    a = p.parse_args()

    env = clean_env()
    build(env)
    cmd = [str(BUILD / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    if a.smoke:
        cmd.append("--smoke")
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                         timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(run.stdout, end="")
        sys.exit(run.returncode or 1)
    print("\n".join(lines[:-1]))
    if a.trace == "1" and not a.smoke:
        cross_check(result["metrics"], env)
    print(json.dumps(result), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
