#!/usr/bin/env bash
# Regenerate BENCH_hotpath.json, the hot-path perf snapshot compared by
# perf-sensitive PRs (see README "Performance snapshot").
#
# Usage:
#   scripts/bench_hotpath.sh [baseline.jsonl]   # merge into BENCH_hotpath.json
#   scripts/bench_hotpath.sh --record           # only write the raw record
#   scripts/bench_hotpath.sh --alternate <parent-tree> <bench>...
#                                               # re-record some targets' rows
#
# Runs every Criterion microbench with the BENCH_JSON shim enabled and
# writes the raw record of the run — a machine line, then one line per
# bench — to target/bench_hotpath.jsonl.  `--record` stops there (run it on
# the reference tree to get a baseline); otherwise the fresh medians are
# merged into BENCH_hotpath.json:
#
#   * `machine`     — what the medians depend on besides the code: `nproc`,
#     the `puffer-nn` kernel tier the CPU dispatches to, `rustc -V` and the
#     CPU model.
#   * `current_ns`  — this run's median.
#   * `baseline_ns` — pinned reference point.  Taken from the optional
#     baseline argument (the raw record of a `--record` run, e.g. on the
#     pre-change tree), else carried forward unchanged from the existing
#     snapshot, else seeded from the first recording.  It does NOT drift to
#     last run's current.  A baseline recorded under a different machine
#     fingerprint is refused before any bench runs: the script exits 3
#     instead of reporting a speedup between machines.  To start over on a
#     new machine, pass a baseline recorded on it.
#   * `history_ns`  — trailing medians on this machine (oldest first,
#     capped), so a slow regression across several regenerations stays
#     visible even though the baseline is pinned.
#   * `min_ns` / `iqr_ns` — this run's dispersion (fastest sample and
#     interquartile range).  When the IQR exceeds 10% of the median the
#     entry is marked `"noisy": true` and a warning is printed: a median
#     from a run that noisy is weather, not climate, and must not be read
#     as a regression or an improvement (a since-removed reference-planner
#     bench once drifted to 0.90x on an untouched path and nothing caught
#     it).
#
# `--alternate` re-records only the rows of the named bench targets (e.g.
# `rct_day ttp_training`) as a same-machine A/B against a parent tree (a
# copy of the parent commit, `git archive <rev> | tar -x -C <dir>`).  It
# builds both trees' bench binaries, then runs them interleaved — parent,
# change, change, parent, ... — five times per side, so drift in the
# machine's load hits both sides alike instead of reading as a speedup on
# code neither side changed.  Each row's
# `baseline_ns` is the median of the parent runs' medians and `current_ns`
# the median of the change runs' medians (`runs` records how many); its
# `min_ns` is the change's fastest sample and `iqr_ns` the median of the
# change runs' IQRs.  Every other row stays as it is.  The per-run rows of
# both sides are kept in target/bench_hotpath_alternate.jsonl.  The machine
# check is the same: it exits 3 if the committed snapshot was recorded
# elsewhere.
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=${1:-}
record_only=false
alternate=false
if [[ $baseline == --record ]]; then
  record_only=true
  baseline=
elif [[ $baseline == --alternate ]]; then
  if [[ $# -lt 3 ]]; then
    echo "usage: $0 --alternate <parent-tree> <bench>..." >&2
    exit 2
  fi
  alternate=true
  parent=$(cd "$2" && pwd)
  targets=("${@:3}")
  runs=5 # interleaved runs per side
  baseline=
fi

fresh=$(mktemp)
merge=$(mktemp)
trap 'rm -f "$fresh" "$merge"' EXIT

tier=$(cargo run -q --release -p puffer-bench --bin nn_tier)
cpu=$(grep -m1 '^model name' /proc/cpuinfo | sed 's/^[^:]*: *//' || true)
machine=$(python3 -c 'import json, sys
print(json.dumps({"nproc": int(sys.argv[1]), "tier": sys.argv[2], "rustc": sys.argv[3],
                  "cpu": sys.argv[4] or "unknown"}))' "$(nproc)" "$tier" "$(rustc -V)" "$cpu")
echo "machine: $machine"

# `check MACHINE BASELINE` exits 3 when the baseline (or, without one, the
# committed snapshot) was recorded on another machine; `merge MACHINE
# BASELINE FRESH` writes BENCH_hotpath.json.
cat > "$merge" <<'EOF'
import json, sys

HISTORY_CAP = 8

NOISE_FRACTION = 0.10  # IQR above this fraction of the median => flagged

def read_record(path):
    """A raw run record: its machine line and its rows by bench name."""
    machine, rows = None, {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if "machine" in row:
                    machine = row["machine"]
                else:
                    rows[row["name"]] = row
    return machine, rows

mode, machine, baseline_path = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] or None
try:
    with open("BENCH_hotpath.json") as f:
        snapshot = json.load(f)
except FileNotFoundError:
    snapshot = {"benches": {}}
prev = snapshot["benches"]
same_machine = snapshot.get("machine") == machine

def median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2

if mode == "alternate":
    # Re-record only the rows these runs produced; keep every other row.
    runs = {}
    with open(sys.argv[4]) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs.setdefault(row["name"], {"parent": [], "change": []})[row["side"]].append(row)
    for name, sides in sorted(runs.items()):
        parent, change = sides["parent"], sides["change"]
        if not parent or not change:
            print(f"note: {name} ran on one side only; its row is left as it was")
            continue
        current = round(median([r["median_ns"] for r in change]), 1)
        baseline = round(median([r["median_ns"] for r in parent]), 1)
        iqr = round(median([r["q3_ns"] - r["q1_ns"] for r in change]), 1)
        entry = {"current_ns": current, "baseline_ns": baseline,
                 "speedup": round(baseline / current, 3), "runs": len(change),
                 "min_ns": min(r["min_ns"] for r in change), "iqr_ns": iqr}
        if current > 0 and iqr / current > NOISE_FRACTION:
            entry["noisy"] = True
            print(f"WARNING: {name} is noisy (median IQR {100 * iqr / current:.1f}% of median); "
                  "treat its median and speedup as unreliable")
        history = prev.get(name, {}).get("history_ns", [])
        entry["history_ns"] = (history + [current])[-HISTORY_CAP:]
        prev[name] = entry
        print(f"{name}: parent {baseline:.1f} ns, change {current:.1f} ns, "
              f"{entry['speedup']}x over {len(change)} runs per side")
    snapshot["benches"] = dict(sorted(prev.items()))
    with open("BENCH_hotpath.json", "w") as f:
        json.dump(snapshot, f, indent=2)
        f.write("\n")
    print("wrote BENCH_hotpath.json")
    sys.exit(0)

if mode == "check":
    if baseline_path:
        source, theirs = baseline_path, read_record(baseline_path)[0]
    else:
        source, theirs = "BENCH_hotpath.json", snapshot.get("machine")
    if theirs != machine and (baseline_path or prev):
        print(f"error: {source} was recorded on {json.dumps(theirs)},\n"
              f"       this machine is {json.dumps(machine)}: refusing to compute\n"
              "       speedups across machines.  Pass a baseline recorded here (the\n"
              "       target/bench_hotpath.jsonl of a --record run on the reference tree).",
              file=sys.stderr)
        sys.exit(3)
    sys.exit(0)

_, fresh = read_record(sys.argv[4])
explicit_baseline = {}
if baseline_path:
    explicit_baseline = {n: r["median_ns"] for n, r in read_record(baseline_path)[1].items()}

out = {
    "generated_by": "scripts/bench_hotpath.sh",
    "units": "nanoseconds, median per iteration",
    "machine": machine,
    "benches": {},
}
noisy = []
for name in sorted(fresh):
    row = fresh[name]
    median = row["median_ns"]
    entry = {"current_ns": median}
    # Nothing carries over from a snapshot recorded on another machine.
    old = prev.get(name, {}) if same_machine else {}
    if baseline_path:
        baseline = explicit_baseline.get(name)
    else:
        baseline = old.get("baseline_ns", old.get("current_ns"))
    if baseline is not None:
        entry["baseline_ns"] = baseline
        entry["speedup"] = round(baseline / median, 3)
    # Dispersion of this run (older shim output may predate the fields).
    if "min_ns" in row:
        entry["min_ns"] = row["min_ns"]
    if "q1_ns" in row and "q3_ns" in row:
        iqr = round(row["q3_ns"] - row["q1_ns"], 1)
        entry["iqr_ns"] = iqr
        if median > 0 and iqr / median > NOISE_FRACTION:
            entry["noisy"] = True
            noisy.append((name, 100.0 * iqr / median))
    history = old.get("history_ns", [])
    if not history and "current_ns" in old:
        history = [old["current_ns"]]
    entry["history_ns"] = (history + [median])[-HISTORY_CAP:]
    out["benches"][name] = entry

dropped = sorted(set(prev) - set(fresh))
if dropped:
    print("note: dropped stale benches:", ", ".join(dropped))
for name, pct in noisy:
    print(f"WARNING: {name} is noisy (IQR {pct:.1f}% of median, threshold "
          f"{100 * NOISE_FRACTION:.0f}%); treat its median and speedup as unreliable")

with open("BENCH_hotpath.json", "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print("wrote BENCH_hotpath.json")
EOF

if ! $record_only; then
  python3 "$merge" check "$machine" "$baseline"
fi

if $alternate; then
  # `bench_bins TREE`: build TREE's listed bench targets, print their paths.
  bench_bins() {
    local args=()
    for t in "${targets[@]}"; do args+=(--bench "$t"); done
    cargo bench --offline --no-run --message-format=json --manifest-path "$1/Cargo.toml" \
      -p puffer-bench "${args[@]}" |
      python3 -c 'import json, sys
for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
            and "bench" in msg["target"]["kind"]:
        print(msg["executable"])'
  }
  mapfile -t parent_bins < <(bench_bins "$parent")
  mapfile -t change_bins < <(bench_bins "$PWD")
  if ((${#parent_bins[@]} != ${#targets[@]} || ${#change_bins[@]} != ${#targets[@]})); then
    echo "error: expected ${#targets[@]} bench binaries per tree, got" \
      "${#parent_bins[@]} (parent) and ${#change_bins[@]} (change)" >&2
    exit 2
  fi
  raw=target/bench_hotpath_alternate.jsonl
  mkdir -p target
  : > "$raw"
  # `run_side SIDE TREE BIN...`: one run of every listed bench, rows tagged.
  run_side() {
    local side=$1 tree=$2 bin
    shift 2
    echo "run $side" >&2
    : > "$fresh"
    for bin in "$@"; do
      (cd "$tree/crates/bench" && BENCH_JSON="$fresh" "$bin" > /dev/null)
    done
    python3 -c 'import json, sys
for line in open(sys.argv[1]):
    if line.strip():
        row = json.loads(line)
        row["side"] = sys.argv[2]
        print(json.dumps(row))' "$fresh" "$side" >> "$raw"
  }
  for ((i = 0; i < runs; i++)); do
    if ((i % 2 == 0)); then
      run_side parent "$parent" "${parent_bins[@]}"
      run_side change "$PWD" "${change_bins[@]}"
    else
      run_side change "$PWD" "${change_bins[@]}"
      run_side parent "$parent" "${parent_bins[@]}"
    fi
  done
  echo "wrote $raw"
  python3 "$merge" alternate "$machine" "" "$raw"
  exit 0
fi

# Every [[bench]] target in crates/bench/Cargo.toml must be listed here,
# or its results silently never reach the snapshot (network_sim was
# missing for several PRs and recorded an empty trajectory).
BENCH_JSON="$fresh" cargo bench -p puffer-bench \
  --bench controller --bench ttp_inference --bench ttp_batch --bench ttp_training \
  --bench network_sim --bench stream_sim --bench rct_day --bench archive_io \
  --bench nn_kernels

mkdir -p target
{ echo "{\"machine\": $machine}"; cat "$fresh"; } > target/bench_hotpath.jsonl
echo "wrote target/bench_hotpath.jsonl"
if ! $record_only; then
  python3 "$merge" merge "$machine" "$baseline" target/bench_hotpath.jsonl
fi
