#!/usr/bin/env bash
# Observability overhead gate: proves that compiling the obs layer into the
# per-tuple path (tracing present but *disabled*) costs less than
# OBS_GATE_TOLERANCE on the hot-path benchmarks.
#
# It re-runs BM_RouterThroughput, BM_QueueTransfer and BM_SpscTransfer
# from the current build — where every schedule() carries the trace-writer
# branch and the queues feed the metrics registry — and compares them
# against the checked-in BENCH_hotpath.json baseline, restricted to
# exactly those benchmarks via bench_compare.py --only. The same budget
# covers BM_RouterThroughputElasticIdle/10 (the router loop with a
# disabled ElasticController compiled in, DESIGN.md §11), whose idle cost
# must stay inside the obs tolerance too.
#
# Usage:
#   tools/run_obs_overhead_gate.sh [build-dir] [min-time-seconds]
#
# Environment:
#   OBS_GATE_TOLERANCE   max tolerated slowdown fraction (default 0.05)
#   OBS_GATE_BASELINE    baseline file (default <repo>/BENCH_hotpath.json)
#   OBS_GATE_REPS        benchmark repetitions per attempt; the comparison
#                        folds them to the fastest run (default 5)
#   OBS_GATE_ATTEMPTS    attempts before declaring a real regression
#                        (default 3). A 5% budget sits inside the noise
#                        floor of a shared machine, so one slow attempt is
#                        evidence of load, not of a code regression — a
#                        genuine regression fails every attempt.
#
# The build must be Release (-O3 -DNDEBUG, POSG_DCHECKS=OFF).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
# A tight tolerance needs long repetitions: at 0.2s the run-to-run noise of
# these nanosecond loops exceeds the 5% budget being enforced.
min_time="${2:-1.0}"
tolerance="${OBS_GATE_TOLERANCE:-0.05}"
reps="${OBS_GATE_REPS:-5}"
attempts="${OBS_GATE_ATTEMPTS:-3}"
baseline="${OBS_GATE_BASELINE:-${repo_root}/BENCH_hotpath.json}"
bench_bin="${build_dir}/bench/micro_benchmarks"

if [[ ! -x "${bench_bin}" ]]; then
  echo "run_obs_overhead_gate: ${bench_bin} not found or not executable." >&2
  echo "Build first:  cmake -B '${build_dir}' -S '${repo_root}' -DCMAKE_BUILD_TYPE=Release && cmake --build '${build_dir}' -j" >&2
  exit 1
fi
if [[ ! -f "${baseline}" ]]; then
  echo "run_obs_overhead_gate: baseline ${baseline} not found." >&2
  exit 1
fi

raw="$(mktemp /tmp/posg_obs_gate.XXXXXX.json)"
trap 'rm -f "${raw}"' EXIT

# Pin to one CPU when taskset is available, like run_hotpath_bench.sh.
runner=()
if command -v taskset > /dev/null 2>&1; then
  runner=(taskset -c 0)
fi

echo "obs overhead gate: tracing compiled in but disabled must stay within" \
  "$(python3 -c "print(f'{${tolerance}:.0%}')") of ${baseline}"

for ((attempt = 1; attempt <= attempts; attempt++)); do
  "${runner[@]}" "${bench_bin}" \
    "--benchmark_filter=^(BM_RouterThroughput|BM_QueueTransfer|BM_SpscTransfer)" \
    "--benchmark_out=${raw}" \
    "--benchmark_out_format=json" \
    "--benchmark_min_time=${min_time}" \
    "--benchmark_repetitions=${reps}" \
    "--benchmark_report_aggregates_only=false"

  echo
  echo "obs overhead gate: attempt ${attempt}/${attempts}"
  if python3 "${repo_root}/tools/bench_compare.py" compare \
    "${baseline}" "${raw}" \
    --max-regression "${tolerance}" \
    --only '^(BM_RouterThroughput/10|BM_RouterThroughputElasticIdle/10|BM_QueueTransfer|BM_SpscTransfer)'; then
    exit 0
  fi
done

echo "run_obs_overhead_gate: FAIL — regression reproduced on all ${attempts} attempt(s)." >&2
exit 1
