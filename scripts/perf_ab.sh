#!/usr/bin/env bash
# A/B the repository benchmark between a parent commit and this checkout.
#
#   scripts/perf_ab.sh <parent-ref> <workload> <pairs> [seed]
#
# Checks <parent-ref> out into a temporary git worktree, then runs
# `python3 perfbench/run.py --workload <workload> --seed <seed>
# --seconds S --trace 0` on both trees <pairs> times, alternating which side
# runs first in each pair. perfbench/run.py runs unchanged on each tree and
# builds that tree's sources into its own .bench_build/. The end-to-end
# metrics and their better direction come from BENCHMARK.json.
#
# Prints, per metric, the parent's and the change's median and quartiles,
# the ratio of medians, and in how many pairs the change was better, then
# whether every run was correct and how many operations failed, and whether
# both runs of every pair printed the same sim_digest (or the first pair
# whose digests differ). Each run's full report is kept under $OUT
# (default: a temporary directory) next to its result line.
#
#   seed             default 3
#   SECONDS_PER_RUN  seconds per run (default 45, BENCHMARK.json's run_seconds)
#   OUT              directory for {parent,change}-<i>.txt (full report)
#                    and {parent,change}-<i>.json (its last line)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ]; then
  sed -n '2,23p' "$0" >&2
  exit 2
fi
ref=$1
workload=$2
pairs=$3
seed=${4:-3}
seconds=${SECONDS_PER_RUN:-45}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"

wt=$(mktemp -d)
rmdir "$wt"
git worktree add --quiet --detach "$wt" "$ref"
trap 'git worktree remove --force "$wt"' EXIT

# A run whose checks fail still leaves its result line, which reports
# `correct` and `failed`; only a missing line counts as a lost pair.
run() {  # run <tree> <name> [extra run.py flags]
  local tree=$1 name=$2
  shift 2
  (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
     --seed "$seed" --trace 0 "$@" 2>/dev/null || true) > "$out/$name.txt"
  tail -n 1 "$out/$name.txt" > "$out/$name.json"
}

# Build both trees before anything is timed.
echo "perf_ab: building $ref and this checkout" >&2
run "$wt" parent-build --seconds 1 --smoke
run . change-build --seconds 1 --smoke

for ((i = 0; i < pairs; i++)); do
  echo "perf_ab: pair $((i + 1))/$pairs" >&2
  if ((i % 2 == 0)); then
    run "$wt" "parent-$i" --seconds "$seconds"
    run . "change-$i" --seconds "$seconds"
  else
    run . "change-$i" --seconds "$seconds"
    run "$wt" "parent-$i" --seconds "$seconds"
  fi
done

python3 - "$out" "$pairs" "$ref" "$workload" "$seed" "$seconds" <<'EOF'
import json
import statistics
import sys

out, pairs, ref, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open("BENCHMARK.json"))["end_to_end"]


def load(side):
    runs = []
    for i in range(pairs):
        with open(f"{out}/{side}-{i}.json") as f:
            line = f.read().strip()
        try:
            runs.append(json.loads(line))
        except json.JSONDecodeError:
            runs.append(None)
    return runs


parent, change = load("parent"), load("change")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"perf_ab: {workload} seed {seed}, {pairs} pairs of {seconds} s, "
      f"parent {ref} vs this checkout")
print(f"{'metric':20s} {'parent median [q1, q3]':34s} "
      f"{'change median [q1, q3]':34s} {'ratio':>7s} {'better':>7s}")
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    ps, cs, wins = [], [], 0
    for p, c in zip(parent, change):
        if p is None or c is None:
            continue
        pv, cv = p["metrics"][name]["value"], c["metrics"][name]["value"]
        ps.append(pv)
        cs.append(cv)
        wins += (cv < pv) if lower else (cv > pv)
    if not ps:
        print(f"{name:20s} no complete pair")
        continue
    pq, cq = quartiles(ps), quartiles(cs)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"{name:20s} {pq[1]:11.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
          f"{cq[1]:11.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] {ratio:7.4f} "
          f"{wins:3d}/{len(ps):<3d}")
for side, runs in (("parent", parent), ("change", change)):
    ok = [r for r in runs if r is not None]
    print(f"{side}: correct {all(r['correct'] for r in ok) and len(ok) == pairs}"
          f" failed {sum(r['failed'] for r in ok)}"
          f" missing {pairs - len(ok)}")


def digest(side, i):
    with open(f"{out}/{side}-{i}.txt") as f:
        for line in f:
            if line.startswith("sim_digest:"):
                return line.split(":", 1)[1].strip()
    return None


digests = [(digest("parent", i), digest("change", i)) for i in range(pairs)]
bad = [i for i, (p, c) in enumerate(digests) if p is None or p != c]
if bad:
    p, c = digests[bad[0]]
    print(f"sim_digest: pair {bad[0] + 1} differs: parent {p} change {c}")
else:
    values = sorted({p for p, _ in digests})
    print(f"sim_digest: all {pairs} pairs match ({', '.join(values)})")
print(f"results: {out}")
EOF
