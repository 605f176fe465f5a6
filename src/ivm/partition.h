// Copyright 2026 The rollview Authors.
//
// Join-key partitioning of a view's delta streams. Two delta rows can join
// only when they agree on every equi-join column, so hash-partitioning each
// relation's delta by a column from one join-*equivalence class* that
// touches every term makes the P partitions propagate independently: a
// forward query over partition p's delta slice joined with partition p's
// slices (and full base tables) produces exactly the view rows whose join
// key hashes to p, and the union over partitions tiles the unpartitioned
// result. The heavy/light partitioning line of work (PAPERS.md) and
// DBToaster's delta-program decomposition rest on the same observation.
//
// ResolvePartitioning runs a union-find over (term, column) pairs connected
// by the view's EquiJoins and picks a class with a member in every term.
// Views without such a class (e.g. a star join, where dimensions share no
// common key) cannot be partitioned this way and get an error -- callers
// fall back to one unpartitioned strip.

#ifndef ROLLVIEW_IVM_PARTITION_H_
#define ROLLVIEW_IVM_PARTITION_H_

#include <cstdint>
#include <vector>

#include "capture/delta_table.h"
#include "common/result.h"
#include "ivm/view_def.h"

namespace rollview {

// One strip's slice of a partitioned view: partition `index` of `count`,
// with `columns[i]` the hash column of term i's delta rows. count <= 1
// means unpartitioned (columns may be empty).
struct PartitionSlice {
  uint32_t index = 0;
  uint32_t count = 1;
  std::vector<size_t> columns;  // per-term; size == num_terms when count > 1

  bool enabled() const { return count > 1; }
  // The delta filter for term i under this slice.
  DeltaPartitionFilter FilterFor(size_t term) const {
    DeltaPartitionFilter f;
    if (enabled()) {
      f.column = columns[term];
      f.count = count;
      f.index = index;
    }
    return f;
  }
};

// The per-term hash columns of one join-equivalence class covering every
// term of `view`, or InvalidArgument when no class touches all terms.
Result<std::vector<size_t>> ResolvePartitionColumns(const ResolvedView& view);

// Convenience: the full slice for partition `index` of `count`.
Result<PartitionSlice> ResolvePartitionSlice(const ResolvedView& view,
                                             uint32_t index, uint32_t count);

}  // namespace rollview

#endif  // ROLLVIEW_IVM_PARTITION_H_
