#!/usr/bin/env python3
"""The benchmark's own test: every workload, traced and untraced, in smoke
mode (shrunken scenarios). Checks that each run exits 0, passes every
correctness check with no failures, and prints exactly the metrics
BENCHMARK.json names, each with its declared unit.

    python3 perfbench/smoke_test.py
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--smoke"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            try:
                result = json.loads(run.stdout.strip().split("\n")[-1])
            except (json.JSONDecodeError, IndexError):
                problems.append(f"{where}: no result line")
                continue
            if run.returncode != 0 or not result["correct"]:
                problems.append(f"{where}: exit {run.returncode}, "
                                f"correct={result['correct']}")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: failed={result['failed']} "
                                f"attempted={result['attempted']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = expected[trace]
            if got != want:
                wrong_units = [k for k in got if k in want and got[k] != want[k]]
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: missing "
                    f"{sorted(set(want) - set(got))}, extra "
                    f"{sorted(set(got) - set(want))}, wrong units {wrong_units}")
            print(f"{where}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print("FAIL:", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
