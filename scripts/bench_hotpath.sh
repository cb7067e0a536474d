#!/usr/bin/env bash
# Regenerate BENCH_hotpath.json, the hot-path perf snapshot compared by
# perf-sensitive PRs (see README "Performance snapshot").
#
# Usage:
#   scripts/bench_hotpath.sh [baseline.json]
#
# Runs every Criterion microbench with the BENCH_JSON shim enabled, then
# merges the fresh medians into BENCH_hotpath.json:
#
#   * `current_ns`  — this run's median.
#   * `baseline_ns` — pinned reference point.  Taken from the optional
#     baseline argument (a BENCH_JSON-format .jsonl from a reference run,
#     e.g. one recorded on the pre-change tree on the same machine), else
#     carried forward unchanged from the existing snapshot, else seeded
#     from the first recording.  It does NOT drift to last run's current.
#   * `history_ns`  — trailing medians (oldest first, capped), so a slow
#     regression across several regenerations stays visible even though
#     the baseline is pinned.
#   * `min_ns` / `iqr_ns` — this run's dispersion (fastest sample and
#     interquartile range).  When the IQR exceeds 10% of the median the
#     entry is marked `"noisy": true` and a warning is printed: a median
#     from a run that noisy is weather, not climate, and must not be read
#     as a regression or an improvement (a since-removed reference-planner
#     bench once drifted to 0.90x on an untouched path and nothing caught
#     it).
set -euo pipefail
cd "$(dirname "$0")/.."

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT

# Every [[bench]] target in crates/bench/Cargo.toml must be listed here,
# or its results silently never reach the snapshot (network_sim was
# missing for several PRs and recorded an empty trajectory).
BENCH_JSON="$fresh" cargo bench -p puffer-bench \
  --bench controller --bench ttp_inference --bench ttp_batch --bench ttp_training \
  --bench network_sim --bench stream_sim --bench rct_day --bench archive_io \
  --bench nn_kernels

python3 - "$fresh" "${1:-}" <<'EOF'
import json, sys

HISTORY_CAP = 8

NOISE_FRACTION = 0.10  # IQR above this fraction of the median => flagged

fresh_path, baseline_path = sys.argv[1], sys.argv[2] or None
fresh = {}
with open(fresh_path) as f:
    for line in f:
        line = line.strip()
        if line:
            row = json.loads(line)
            fresh[row["name"]] = row

try:
    with open("BENCH_hotpath.json") as f:
        prev = json.load(f)["benches"]
except FileNotFoundError:
    prev = {}

explicit_baseline = {}
if baseline_path:
    with open(baseline_path) as f:
        for line in f:
            line = line.strip()
            if line:
                row = json.loads(line)
                explicit_baseline[row["name"]] = row["median_ns"]

out = {
    "generated_by": "scripts/bench_hotpath.sh",
    "units": "nanoseconds, median per iteration",
    "benches": {},
}
noisy = []
for name in sorted(fresh):
    row = fresh[name]
    median = row["median_ns"]
    entry = {"current_ns": median}
    old = prev.get(name, {})
    baseline = explicit_baseline.get(name, old.get("baseline_ns", old.get("current_ns")))
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
