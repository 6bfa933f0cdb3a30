#!/usr/bin/env bash
# Runs the deterministic simulator benches and keeps their output.
#
# Usage:
#   tools/run_sim_benches.sh BUILD_DIR OUT_DIR
#
# Each bench runs as `BUILD_DIR/bench/<bench> --out OUT_DIR`, so its CSVs
# land in OUT_DIR, and its stdout is kept as OUT_DIR/<bench>.txt (and
# echoed). Every bench asserts its figure's claims in `# shape-check:`
# lines and exits non-zero on a FAIL. All benches run; the script exits 1
# when any of them failed, and names them.
#
# The runs are deterministic: two trees that simulate alike leave OUT_DIRs
# that `diff -r` finds equal. fig11/fig12 drive the engine on wall-clock
# time and are not run here. About a minute in Release.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build_dir="$1"
out_dir="$2"
mkdir -p "${out_dir}"

benches=(
  fig04_distributions fig05_overprovisioning fig06_wmax fig07_wn
  fig08_instances fig09_epsilon fig10_timeseries_sim
  theory_estimation theory_greedy_bound
  ablation_estimator_sync ablation_window_mu
  extension_latency extension_reactive extension_hybrid
  extension_multisource
)

failed=()
for bench in "${benches[@]}"; do
  echo "== ${bench}" >&2
  if ! "${build_dir}/bench/${bench}" --out "${out_dir}" | tee "${out_dir}/${bench}.txt"; then
    failed+=("${bench}")
  fi
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "run_sim_benches: failed: ${failed[*]}" >&2
  exit 1
fi
echo "run_sim_benches: ${#benches[@]} benches passed" >&2
