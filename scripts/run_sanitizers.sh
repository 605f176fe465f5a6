#!/usr/bin/env bash
# Drive the sanitizer presets over the robustness-critical ctest labels:
#
#   tsan   -> scrub + concurrency + parallel + durability + obs
#             (races in scrub-vs-apply locking, scrape-vs-drop teardown,
#             partition strip barriers, group-commit flusher vs committers
#             vs fault storms, freshness stamping across committer/flusher/
#             strip/apply threads, trace ring under concurrent writers and
#             scrapes)
#   asan   -> scrub + recovery + durability + obs + storage   (WAL
#             replay, checkpoint decode, repair escalation, segment scan
#             over torn/corrupt files, borrowed-instrument registration/drop
#             lifetimes, version-slot indexing across GC compaction)
#   ubsan  -> scrub + recovery + parallel + durability + storage
#             (digest mixing arithmetic, cursor folding, partition math,
#             CRC/LSN framing arithmetic, MVCC heap slot arithmetic)
#
#   scripts/run_sanitizers.sh [tsan|asan|ubsan]...
#
# With no arguments all three run. Each sanitizer configures/builds its own
# CMake preset tree (build-tsan/, build-asan/, build-ubsan/) so a plain
# `cmake --preset default` build is never polluted. Exits nonzero on the
# first failing sanitizer arm.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(tsan asan ubsan)
fi

labels_for() {
  case "$1" in
    tsan)  echo "scrub|concurrency|parallel|durability|obs" ;;
    asan)  echo "scrub|recovery|durability|obs|storage" ;;
    ubsan) echo "scrub|recovery|parallel|durability|storage" ;;
    *)
      echo "unknown sanitizer '$1' (expected tsan, asan or ubsan)" >&2
      return 1
      ;;
  esac
}

for san in "${sanitizers[@]}"; do
  labels="$(labels_for "${san}")"
  echo "== ${san}: ctest -L '${labels}'"
  cmake --preset "${san}" >/dev/null
  cmake --build --preset "${san}" -j "$(nproc)" >/dev/null
  ctest --test-dir "${repo_root}/build-${san}" -L "${labels}" \
        --output-on-failure -j "$(nproc)"
done

echo "sanitizers clean: ${sanitizers[*]}"
