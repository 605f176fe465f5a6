#!/usr/bin/env bash
# Regenerate every committed BENCH_*.json baseline from a fresh Release-ish
# build. Run from anywhere; outputs land at the repo root, next to this
# script's parent directory.
#
#   scripts/regen_benches.sh [build_dir [bench ...]]
#
# With bench names (e.g. bench_executor bench_multiview) only those
# baselines are regenerated; without, all of them.
#
# The perf-smoke ctest label (bench_executor_smoke) compares deterministic
# counters (queries, row traffic) against the committed BENCH_executor.json,
# so rerun this script -- on a quiet machine, since the committed wall
# times are medians of one run's reps -- whenever an intentional change
# shifts those counters, then commit the refreshed JSON together with the
# change.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
mkdir -p "${build_dir}"
build_dir="$(cd "${build_dir}" && pwd)"  # absolute: we cd away below
shift $(( $# > 0 ? 1 : 0 ))
benches=("$@")
if (( ${#benches[@]} == 0 )); then
  benches=(bench_executor bench_fault_recovery bench_recovery
           bench_contention bench_multiview bench_scrub bench_freshness)
fi

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target "${benches[@]}" >/dev/null

# Each bench writes BENCH_<experiment>.json into its working directory.
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
cd "${workdir}"

for bench in "${benches[@]}"; do
  echo "== ${bench}"
  "${build_dir}/bench/${bench}"
done

for json in BENCH_*.json; do
  # Every baseline must have been produced by the shared registry-snapshot
  # serializer (bench_util RegistryRowEmitter); a missing marker means a
  # bench regressed to a bespoke emitter and its schema is no longer
  # governed by the unified telemetry layer.
  if ! grep -q '"serializer": "registry-snapshot-v1"' "${json}"; then
    echo "FATAL: ${json} lacks the registry-snapshot-v1 serializer marker" >&2
    echo "       (did a bench stop emitting rows through RegistryRowEmitter?)" >&2
    exit 1
  fi
  cp "${json}" "${repo_root}/${json}"
  echo "updated ${repo_root}/${json}"
done
