#!/usr/bin/env bash
# Alternating-pairs A/B of the RCT benchmark (examples/rctbench) between a
# parent tree and this tree, on one workload.
#
# Usage:
#   scripts/rctbench_ab.sh <parent-tree> <workload> [pairs=10] [seconds=30] [first-seed=1]
#
# <parent-tree> is a copy of the parent commit (`git worktree add`, or
# `git archive <rev> | tar -x -C <dir>`).  The script builds
# examples/rctbench in both trees, then runs `pairs` pairs: pair i runs seed
# first-seed + i on both sides with `--trace 0 --seconds <seconds>`, the
# parent first in even pairs and this tree first in odd ones, so drift in
# the machine's load hits both sides alike.
#
# The metrics, their directions and bounds are the `end_to_end` entries of
# this tree's BENCHMARK.json.  For each it prints both sides' median and
# quartiles, the median change/parent ratio over the pairs, how many pairs
# the change won (a tie counts for neither side), and whether the change's
# median is within the bound of the parent's.  Below the table, each side's
# median busy CPUs (per run, stream_hours_per_s / stream_hours_per_cpu_s)
# shows work moving between the parallel phase and the serial or wave
# phases; it is informational and gates nothing.  Then one verdict line per
# metric applies the gain rule: no run failed (see below), the change wins
# at least 9 of every 10 pairs run, and its median beats the parent's by
# more than the parent's q3 - q1.
#
# A run that exits without writing its result record (a panic, say) is
# reported as a FAILED RUN with its exit code; the batch goes on, and the
# table covers the complete pairs.  Exits 1 when any run failed that way,
# read "correct": false or has a nonzero "failed" count, and 3 when a
# pair's two result records carry different machine fingerprints
# (`rctbench compare` refuses them), after printing the table of whatever
# ran.  No source under examples/rctbench is changed: each run writes its
# record to rctbench's git-ignored out/ directory as usual, and the record
# is copied to a temporary directory ($TMPDIR), kept and named at the end.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
  echo "usage: $0 <parent-tree> <workload> [pairs=10] [seconds=30] [first-seed=1]" >&2
  exit 2
fi
change=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
workload=$2
pairs=${3:-10}
seconds=${4:-30}
first_seed=${5:-1}

for tree in "$parent" "$change"; do
  echo "building rctbench in $tree ..." >&2
  cargo build --release --offline --quiet --manifest-path "$tree/examples/rctbench/Cargo.toml"
done

work=$(mktemp -d)
status=0

# run SIDE TREE SEED: one benchmark run; its result record lands in $work,
# or a FAILED RUN line in $work/failed_runs when it wrote none.
run() {
  local side=$1 tree=$2 seed=$3 code=0
  local bin="$tree/examples/rctbench/target/release/rctbench"
  local record="$tree/examples/rctbench/out/result_${workload}_seed${seed}_trace0.json"
  echo "pair seed $seed: $side" >&2
  rm -f "$record"
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    > "$work/${side}_${seed}.log" || code=$?
  if [[ -f $record ]]; then
    cp "$record" "$work/${side}_${seed}.json"
  else
    echo "FAILED RUN: $side seed $seed: exit $code, no record" | tee -a "$work/failed_runs" >&2
  fi
}

ran=0
for ((i = 0; i < pairs; i++)); do
  seed=$((first_seed + i))
  ran=$((ran + 1))
  if ((i % 2 == 0)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  if [[ ! -f $work/parent_${seed}.json || ! -f $work/change_${seed}.json ]]; then
    continue
  fi
  if ! "$change/examples/rctbench/target/release/rctbench" compare \
    "$work/parent_${seed}.json" "$work/change_${seed}.json" > /dev/null 2> "$work/compare_${seed}.err"; then
    cat "$work/compare_${seed}.err" >&2
    status=3
    break
  fi
done

summary=0
python3 - "$change/BENCHMARK.json" "$work" "$workload" "$ran" <<'EOF' || summary=$?
import glob, json, os, statistics, sys

bench_path, work, workload, ran = sys.argv[1:]
ran = int(ran)
metrics = json.load(open(bench_path))["end_to_end"]

def load(side):
    out = {}
    for path in glob.glob(os.path.join(work, f"{side}_*.json")):
        seed = int(path.rsplit("_", 1)[1].split(".")[0])
        out[seed] = json.load(open(path))
    return out

parent, change = load("parent"), load("change")
seeds = sorted(set(parent) & set(change))
bad = [f"{side} seed {s}: correct={r['correct']} failed={r['failed']}"
       for side, recs in (("parent", parent), ("change", change))
       for s, r in sorted(recs.items()) if not r["correct"] or r["failed"]]
failed_runs = os.path.join(work, "failed_runs")
if os.path.exists(failed_runs):
    bad += [line.removeprefix("FAILED RUN: ").strip() for line in open(failed_runs)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"workload {workload}: {len(seeds)} complete pairs of {ran} run, seeds {seeds[0]}..{seeds[-1]}"
      if seeds else f"workload {workload}: no complete pairs of {ran} run")
print(f"{'metric':<24} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
      f" {'ratio':>7} {'wins':>7}  within bound")
verdicts = []
for m in metrics:
    name, better, bound = m["name"], m["better"], m["bound"]
    if not seeds:
        break
    p = [parent[s]["metrics"][name]["value"] for s in seeds]
    c = [change[s]["metrics"][name]["value"] for s in seeds]
    pq, cq = quartiles(p), quartiles(c)
    ratio = statistics.median(cv / pv for pv, cv in zip(p, c))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for pv, cv in zip(p, c) if sign * (cv - pv) > 0)
    limit = pq[1] * (1 - bound) if better == "higher" else pq[1] * (1 + bound)
    within = cq[1] >= limit if better == "higher" else cq[1] <= limit
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<24} {fmt(pq):>30} {fmt(cq):>30} {ratio:>7.3f} {wins:>3}/{len(seeds):<3}"
          f"  {'yes' if within else 'NO'} ({better} is better, bound {bound})")
    # The gain rule: no failed run on either side, at least 9 wins in every
    # 10 pairs run (a pair that did not complete is not a win), and the
    # medians further apart, in the change's favour, than the parent's
    # quartiles.
    gain, iqr = sign * (cq[1] - pq[1]), pq[2] - pq[0]
    holds = not bad and 10 * wins >= 9 * ran and gain > iqr
    verdicts.append(f"gain rule {name}: {'holds' if holds else 'does not hold'}"
                    f" (wins {wins}/{ran}, 9/10 needed; median gain {gain:.4g}"
                    f" vs parent q3 - q1 {iqr:.4g}; failed runs {len(bad)})")
if seeds:
    def busy(recs):
        return statistics.median(recs[s]["metrics"]["stream_hours_per_s"]["value"]
                                 / recs[s]["metrics"]["stream_hours_per_cpu_s"]["value"]
                                 for s in seeds)
    print(f"busy CPUs (stream_hours_per_s / stream_hours_per_cpu_s), median per run:"
          f" parent {busy(parent):.3f}, change {busy(change):.3f}")
for v in verdicts:
    print(v)
for b in bad:
    print(f"FAILED RUN: {b}")
sys.exit(1 if bad else 0)
EOF
if ((status == 0)); then
  status=$summary
fi
echo "result records and logs: $work" >&2
exit "$status"
