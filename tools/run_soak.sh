#!/usr/bin/env bash
# Seeded fault campaigns over the forked distributed_posg example
# (examples/README.md; DESIGN.md §6, §11, §14, §15).
#
# Usage:
#   tools/run_soak.sh CAMPAIGN [build-dir]
#
#   chaos        SOAK_ITERS gray-fault runs (k=4, m=5000): a straggler, an
#                instance killed at a marker, per-link gray faults, rejoin
#                with refork.
#   schedkill    one control / kill / corrupt triple (k=4, m=16000): the
#                scheduler is SIGKILLed 3 times at seeded epochs and restarts
#                from its checkpoint; the corrupt run flips a checkpoint byte
#                before the last restart.
#   autoscale    SOAK_ITERS flash crowds over a straggler (k=4, m=8000).
#   multisource  SOAK_ITERS steady runs of 2..4 sources over one pool (k=4,
#                m=6000), then the churn pair (3 sources, m=24000): source
#                SOAK_SEED % 3 is severed, and in the second run restarted.
#
# Every run's flags are a function of its seed, so the replay line printed
# on a failure reruns it exactly:
#   SOAK_SEED=<s> SOAK_ITERS=1 tools/run_soak.sh <campaign> <build-dir>
#
# The driver judges each run itself and says so in its exit code (0 every
# gate held, 1 degraded with a `fatal:` line, 3 a gate failed; see its
# header). This harness checks only what one run cannot see:
#   - a run that outlives its timeout (120 s; 180 s for multisource) hung;
#   - chaos and autoscale accept exit 0, or 1 with a `fatal:` line;
#     schedkill and multisource accept only 0;
#   - schedkill: the kill run restored from a checkpoint at least once, the
#     corrupt run's last incarnation cold-started, and the kill run's final
#     sum(C_hat) lies in [ctrl * max(0.2, 0.9 - 0.2 * kills), ctrl * 1.05].
#     A kill forfeits at most the billing routed since the last checkpoint;
#     a kill run above the control billed a pre-crash delta twice;
#   - autoscale: at least one scale action across the soak.
# It stops at the first failing run and never retries one.
#
# Environment:
#   SOAK_SEED=<n>          first seed (default 1); loop run i uses SOAK_SEED+i
#   SOAK_ITERS=<n>         runs of the seeded loop (default 3)
#   SOAK_METRICS_OUT=<dir> keep each run's final metrics snapshot as
#                          metrics_<run>.json (.jsonl under multisource, one
#                          document per view), the chaos and autoscale runs'
#                          trace ring as trace_<run>.jsonl, and the schedkill
#                          kill run's last checkpoint as schedkill.ckpt. Read
#                          them with tools/obs_report.py and
#                          tools/ckpt_inspect.py.
set -euo pipefail

campaign="${1:-}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${2:-${repo_root}/build}"
example="${build_dir}/examples/distributed_posg"
seed="${SOAK_SEED:-1}"
iters="${SOAK_ITERS:-3}"
metrics_out="${SOAK_METRICS_OUT:-}"

# Per campaign: instances, tuples per run, seconds per run, the metrics
# file suffix, whether a run dumps its trace ring, and whether a run may
# degrade explicitly.
case "${campaign}" in
  chaos)       k=4 m=5000  timeout_s=120 ext=json  trace=yes degrade=yes ;;
  schedkill)   k=4 m=16000 timeout_s=120 ext=json  trace=no  degrade=no ;;
  autoscale)   k=4 m=8000  timeout_s=120 ext=json  trace=yes degrade=yes ;;
  multisource) k=4 m=6000  timeout_s=180 ext=jsonl trace=no  degrade=no ;;
  *)
    echo "usage: tools/run_soak.sh chaos|schedkill|autoscale|multisource [build-dir]" >&2
    exit 2
    ;;
esac

if [[ ! -x "${example}" ]]; then
  echo "run_soak: ${example} not found or not executable." >&2
  echo "Build first:  cmake -B '${build_dir}' -S '${repo_root}' && cmake --build '${build_dir}' -j" >&2
  exit 1
fi
if [[ -n "${metrics_out}" ]]; then
  mkdir -p "${metrics_out}"
fi
workdir="$(mktemp -d /tmp/posg_soak.XXXXXX)"
trap 'rm -rf "${workdir}"' EXIT

fail() {  # fail SEED MESSAGE
  echo "" >&2
  echo "SOAK FAILED (${campaign}, seed $1): $2" >&2
  echo "Replay with:  SOAK_SEED=$1 SOAK_ITERS=1 tools/run_soak.sh ${campaign} '${build_dir}'" >&2
  exit 1
}

# run NAME SEED FLAGS...: one bounded run of the driver, logged to
# NAME.log, that must exit with a code its campaign accepts.
run() {
  local name="$1" s="$2"
  shift 2
  local log="${workdir}/${name}.log" stats="${workdir}/${name}"
  local obs=()
  mkdir -p "${stats}"
  if [[ -n "${metrics_out}" ]]; then
    obs=(--metrics-out "${metrics_out}/metrics_${name}.${ext}")
    if [[ ${trace} == yes ]]; then
      obs+=(--trace-out "${metrics_out}/trace_${name}.jsonl")
    fi
  fi
  echo "${campaign} ${name}: $*"
  local rc=0
  timeout --kill-after=10 "${timeout_s}" "${example}" --k "${k}" --stats-dir "${stats}" \
    "$@" "${obs[@]}" > "${log}" 2>&1 || rc=$?
  if ((rc == 124 || rc == 137)); then
    tail -40 "${log}" >&2
    fail "${s}" "${name} hung past the ${timeout_s} s bound"
  elif ((rc == 1)) && [[ ${degrade} == yes ]] && grep -q '^fatal:' "${log}"; then
    echo "  degraded explicitly (exit 1 with fatal:), allowed"
  elif ((rc != 0)); then
    tail -40 "${log}" >&2
    fail "${s}" "${name} exited ${rc}"
  fi
  grep -E '^(CHAOS|ELASTIC|SCHEDKILL|RECOVERY|MULTISOURCE) ' "${log}" |
    grep -v '^ELASTIC event' | sed 's/^/  /' || true
}

# Each campaign maps a seed to the flags of one run, in `flags`.
chaos_flags() {
  local s="$1"
  flags=(--m "${m}" --fault-seed "${s}" --slow $((s % k)) --slow-factor $((3 + s % 4))
    --kill $(((s + 1) % k)) --kill-epoch $((1 + s % 3)) --rejoin)
}
autoscale_flags() {
  local s="$1"
  flags=(--m "${m}" --autoscale --initial $((1 + s % (k - 1))) --spike-factor $((8 + s % 8))
    --spike-at-ms $((300 + (s % 4) * 100)) --spike-for-ms $((600 + (s % 3) * 200))
    --fault-seed "${s}" --slow $((s % k)) --slow-factor $((2 + s % 3)))
}
multisource_flags() {
  flags=(--m "${m}" --sources $((2 + $1 % 3)))
}
schedkill_flags() {  # schedkill_flags SEED RUN
  flags=(--m "${m}" --ckpt "${workdir}/$2.ckpt" --kill-seed "$1")
}
churn_flags() {
  flags=(--m 24000 --sources 3 --kill-source $(($1 % 3)))
}

case "${campaign}" in
  chaos | autoscale)
    for ((s = seed; s < seed + iters; ++s)); do
      "${campaign}_flags" "${s}"
      run "seed${s}" "${s}" "${flags[@]}"
    done
    ;;
  multisource)
    for ((s = seed; s < seed + iters; ++s)); do
      multisource_flags "${s}"
      run "steady_seed${s}" "${s}" "${flags[@]}"
    done
    churn_flags "${seed}"
    run churn_kill "${seed}" "${flags[@]}"
    run churn_restart "${seed}" "${flags[@]}" --restart-source
    ;;
  schedkill)
    kills=3
    schedkill_flags "${seed}" ctrl
    run ctrl "${seed}" "${flags[@]}" --sched-kill 0
    schedkill_flags "${seed}" kill
    run kill "${seed}" "${flags[@]}" --sched-kill "${kills}"
    if ! grep -q '^RECOVERY .*restored=yes' "${workdir}/kill.log"; then
      fail "${seed}" "kill: no incarnation restored from a checkpoint"
    fi
    ctrl_chat="$(grep -o 'chat_total=[0-9.]*' "${workdir}/ctrl.log" | head -1 | cut -d= -f2)"
    kill_chat="$(grep -o 'chat_total=[0-9.]*' "${workdir}/kill.log" | head -1 | cut -d= -f2)"
    if ! awk -v c="${ctrl_chat}" -v x="${kill_chat}" -v kills="${kills}" \
      'BEGIN { lower = 0.9 - 0.2 * kills; if (lower < 0.2) lower = 0.2;
               exit !(c > 0 && x >= c * lower && x <= c * 1.05) }'; then
      fail "${seed}" "C_hat divergence out of band: control=${ctrl_chat} kill=${kill_chat}"
    fi
    echo "  divergence: control=${ctrl_chat} kill=${kill_chat}, in band"
    schedkill_flags "${seed}" corrupt
    run corrupt "${seed}" "${flags[@]}" --sched-kill "${kills}" --corrupt-ckpt
    if [[ "$(grep '^RECOVERY ' "${workdir}/corrupt.log" | tail -1)" != *restored=no* ]]; then
      fail "${seed}" "corrupt: the last incarnation did not cold-start"
    fi
    if [[ -n "${metrics_out}" ]]; then
      cp "${workdir}/kill.ckpt" "${metrics_out}/schedkill.ckpt"
    fi
    ;;
esac

if [[ ${campaign} == autoscale ]]; then
  actions="$(cat "${workdir}"/seed*.log |
    sed -n 's/^ELASTIC scale_ups=\([0-9]*\) drains=\([0-9]*\) .*/\1 \2/p' |
    awk '{ n += $1 + $2 } END { print n + 0 }')"
  if ((actions == 0)); then
    fail "${seed}" "the controller never scaled across ${iters} flash crowds"
  fi
  echo "  ${actions} scale action(s)"
fi

echo ""
echo "${campaign} soak passed: SOAK_SEED=${seed} SOAK_ITERS=${iters}"
