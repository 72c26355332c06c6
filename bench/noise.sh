#!/usr/bin/env bash
# noise.sh — the benchmark's noise floor, and the rule it is accepted by.
#
# Runs every workload on SEEDS seeds (default 10), twice over on the same
# code, then prints for each end-to-end metric both medians, how much worse the
# second is, each set's interquartile spread as a share of its median, and the
# metric's bound from BENCHMARK.json. Exits 1 if any spread (setup_s excepted)
# or any gap exceeds the metric's own bound. With TRACE=1 it runs the traced
# ladder instead and lists the per-layer metrics, which have no bound.
#
#   bench/noise.sh                 # from the repository root, ~35 min on 2 cores
#   SEEDS=3 bench/noise.sh         # a quick look
#   WORKLOADS="bulk-sft" bench/noise.sh
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=${SEEDS:-10}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
trace=${TRACE:-0}
workloads=${WORKLOADS:-bulk-sft interactive-sft monitor-icl-int8 fleet-interactive}
out=bench/out
mkdir -p "$out"

for set in 1 2; do
  : > "$out/noise.$set.jsonl"
  for w in $workloads; do
    for seed in $(seq 1 "$seeds"); do
      # Different seeds in the two sets: the floor includes the inputs.
      s=$(( (set - 1) * seeds + seed ))
      echo "set $set: $w seed $s" >&2
      line=$(bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" | tail -n 1)
      printf '%s\t%s\n' "$w" "$line" >> "$out/noise.$set.jsonl"
    done
  done
done
bash bench/run.sh --noise "$out/noise.1.jsonl" "$out/noise.2.jsonl"
