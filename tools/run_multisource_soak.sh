#!/usr/bin/env bash
# Multi-source soak for the shared-pool scheduler tier (DESIGN.md §15):
# repeatedly runs the S-source distributed_posg driver — S scheduler
# views over ONE core::InstancePool, k forked instance processes each
# holding one session per source — across seed-rotated campaigns (the
# source count rotates with the seed), then a source-churn phase, and
# asserts the three invariants every campaign must keep:
#
#   1. conservation — each view's sessions execute exactly what that view
#      routed (per-source `conservation=ok`, at-most-once for a severed
#      source),
#   2. no_quarantine — source churn must never masquerade as instance
#      failure: no view quarantines anyone when a *source* dies,
#   3. pool_intact — the shared pool still serves all k slots at exit
#      (no stranded membership, no stranded Ĉ share).
#
# The driver computes the gates itself and prints one summary line
#   MULTISOURCE conservation=ok no_quarantine=ok pool_intact=ok
# (exit 0 iff all three hold); the soak asserts the line AND the exit
# code so a crash before the summary also fails loudly.
#
# Usage:
#   tools/run_multisource_soak.sh [build-dir]
#
# Environment:
#   MS_SEED=<n>     base seed (default 1). Iteration i runs seed
#                   MS_SEED+i; the campaign shape (source count, which
#                   source dies) is a pure function of the seed, so a
#                   failure report's seed replays that
#                   exact campaign:
#                     MS_SEED=<seed> MS_ITERS=1 tools/run_multisource_soak.sh
#   MS_ITERS=<n>    steady-state campaigns to run (default 3)
#   MS_TIMEOUT=<s>  wall-clock bound per campaign, seconds (default 180)
#   MS_K=<n>        instances in the shared pool (default 4)
#   MS_M=<n>        tuples per steady-state campaign (default 6000)
#   MS_CHURN=<0|1>  source-churn phase (default 1): a kill-only campaign
#                   (the severed source stays dead; its sessions must end
#                   on redial-budget exhaustion while the others drain)
#                   and a kill+restart campaign (the new incarnation must
#                   restore from the severed one's checkpoint —
#                   restored=yes — and its sessions re-attach through
#                   SchedulerHello). Churn runs use max(MS_M, 24000)
#                   tuples so an epoch-boundary checkpoint exists before
#                   the kill.
#   MS_METRICS_OUT=<dir>
#                   keep each campaign's per-view metrics snapshots
#                   (metrics_<name>.jsonl, one posg-metrics/1 document
#                   per surviving view; render the merged per-source lens
#                   with tools/obs_report.py).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
example="${build_dir}/examples/distributed_posg"

base_seed="${MS_SEED:-1}"
iters="${MS_ITERS:-3}"
per_run_timeout="${MS_TIMEOUT:-180}"
k="${MS_K:-4}"
m="${MS_M:-6000}"
churn="${MS_CHURN:-1}"
metrics_out="${MS_METRICS_OUT:-}"

if [[ -n "${metrics_out}" ]]; then
  mkdir -p "${metrics_out}"
fi

if [[ ! -x "${example}" ]]; then
  echo "run_multisource_soak: ${example} not found or not executable." >&2
  echo "Build first:  cmake -B '${build_dir}' -S '${repo_root}' && cmake --build '${build_dir}' -j" >&2
  exit 1
fi

workdir="$(mktemp -d /tmp/posg_multisource.XXXXXX)"
trap 'rm -rf "${workdir}"' EXIT

fail() {
  local seed="$1"
  shift
  echo "" >&2
  echo "MULTISOURCE SOAK FAILED at seed ${seed}: $*" >&2
  echo "Replay with:  MS_SEED=${seed} MS_ITERS=1 tools/run_multisource_soak.sh '${build_dir}'" >&2
  exit 1
}

# Runs one campaign and asserts the shared gates; extra per-campaign
# assertions (restored=yes, ...) live at the call sites.
#   run_campaign <name> <seed> <expect_exit0> [driver args...]
run_campaign() {
  local name="$1" seed="$2"
  shift 2
  local log="${workdir}/${name}.log"
  local stats="${workdir}/${name}_stats"
  mkdir -p "${stats}"

  local obs_args=()
  if [[ -n "${metrics_out}" ]]; then
    obs_args=(--metrics-out "${metrics_out}/metrics_${name}.jsonl")
  fi

  echo "multisource campaign ${name}: $*"
  local rc=0
  timeout --kill-after=10 "${per_run_timeout}" \
    "${example}" --k "${k}" --stats-dir "${stats}" "$@" "${obs_args[@]}" \
    > "${log}" 2>&1 || rc=$?

  if [[ ${rc} -eq 124 || ${rc} -eq 137 ]]; then
    tail -40 "${log}" >&2
    fail "${seed}" "${name}: exceeded the ${per_run_timeout}s wall-clock bound (hang)"
  fi
  if [[ ${rc} -ne 0 ]]; then
    tail -40 "${log}" >&2
    fail "${seed}" "${name}: exit code ${rc}"
  fi
  if ! grep -q '^MULTISOURCE conservation=ok no_quarantine=ok pool_intact=ok$' "${log}"; then
    tail -40 "${log}" >&2
    fail "${seed}" "${name}: gate line missing or violated"
  fi
  if grep -q 'conservation=violated' "${log}"; then
    tail -40 "${log}" >&2
    fail "${seed}" "${name}: a per-source conservation row is violated"
  fi
  grep '^MULTISOURCE ' "${log}" | sed 's/^/  /'
}

# --- steady-state campaigns: the source count rotates with the seed
for ((i = 0; i < iters; ++i)); do
  seed=$((base_seed + i))
  sources=$((2 + seed % 3))
  run_campaign "steady_seed${seed}" "${seed}" --sources "${sources}" --m "${m}"
done

# --- source-churn phase: a dying SOURCE must not quarantine INSTANCES
if ((churn)); then
  # Epoch-boundary checkpoints need roughly window * max_windows_per_epoch
  # tuples per instance before the first image lands; below that the
  # restart campaign would always cold-start and restored=yes be vacuous.
  churn_m=$((m < 24000 ? 24000 : m))
  churn_sources=3
  kill_id=$((base_seed % churn_sources))

  run_campaign "churn_kill" "${base_seed}" \
    --sources "${churn_sources}" --m "${churn_m}" \
    --kill-source "${kill_id}"
  if ! grep -q '^MULTISOURCE severed source=' "${workdir}/churn_kill.log"; then
    fail "${base_seed}" "churn_kill: the kill never happened"
  fi

  run_campaign "churn_restart" "${base_seed}" \
    --sources "${churn_sources}" --m "${churn_m}" \
    --kill-source "${kill_id}" --restart-source
  if ! grep -q '^MULTISOURCE restarted source=.*restored=yes' \
      "${workdir}/churn_restart.log"; then
    tail -40 "${workdir}/churn_restart.log" >&2
    fail "${base_seed}" "churn_restart: new incarnation did not restore from the checkpoint"
  fi
  echo "churn phase passed: kill-only + kill/restart (source ${kill_id} of ${churn_sources})"
fi

echo ""
echo "multisource soak passed: ${iters} steady campaign(s), seeds ${base_seed}..$((base_seed + iters - 1))$( ((churn)) && echo ", churn phase")"
