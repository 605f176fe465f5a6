// Copyright 2026 The rollview Authors.
//
// JoinQuery: the physical form of one propagation query
//   pi(sigma(Q[1] |><| Q[2] |><| ... |><| Q[n]))
// where each term Q[i] is either a base table (seen at the executing
// transaction's time, or at a historical snapshot) or a materialized set of
// delta rows (a sigma_{a,b}(Delta^R) range scan, or any intermediate).
//
// Output rows follow the paper's delta algebra (Sec. 2): count is the
// product of the joined rows' counts (times the query's sign), timestamp is
// the minimum of the joined rows' timestamps, nulls ignored (footnote 2).

#ifndef ROLLVIEW_RA_JOIN_QUERY_H_
#define ROLLVIEW_RA_JOIN_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/csn.h"
#include "ra/expr.h"
#include "schema/tuple.h"
#include "storage/ids.h"

namespace rollview {

// Composite equi-join key: the values of several columns hashed together.
// Keys the executor's hash joins.
struct JoinKey {
  std::vector<Value> values;

  friend bool operator==(const JoinKey& a, const JoinKey& b) {
    return a.values == b.values;
  }
};

struct JoinKeyHasher {
  size_t operator()(const JoinKey& k) const {
    size_t h = 0x243f6a8885a308d3ULL;
    for (const Value& v : k.values) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

struct TermSource {
  enum class Kind {
    kBaseCurrent,   // base table, read inside the executing transaction
    kBaseSnapshot,  // base table, time-travel read at snapshot_csn
    kRows,          // materialized delta rows (caller retains ownership)
  };

  Kind kind = Kind::kBaseCurrent;
  TableId table = kInvalidTableId;  // identifies the relation (all kinds)
  Csn snapshot_csn = kNullCsn;      // kBaseSnapshot only
  // kRows only: exactly one of `rows` (owned elsewhere, copied storage) or
  // `row_refs` (zero-copy borrow, e.g. DeltaTable::ScanRefs under a pin) is
  // set; the caller keeps both the container and -- for row_refs -- the
  // pinned underlying rows alive for the whole execution.
  const DeltaRows* rows = nullptr;
  const DeltaRowRefs* row_refs = nullptr;

  static TermSource BaseCurrent(TableId table) {
    return TermSource{Kind::kBaseCurrent, table, kNullCsn, nullptr, nullptr};
  }
  static TermSource BaseSnapshot(TableId table, Csn csn) {
    return TermSource{Kind::kBaseSnapshot, table, csn, nullptr, nullptr};
  }
  static TermSource Rows(TableId table, const DeltaRows* rows) {
    return TermSource{Kind::kRows, table, kNullCsn, rows, nullptr};
  }
  static TermSource RowRefs(TableId table, const DeltaRowRefs* refs) {
    return TermSource{Kind::kRows, table, kNullCsn, nullptr, refs};
  }
};

// Equality predicate term_l.col_l = term_r.col_r (term indexes into
// JoinQuery::terms; column indexes into that term's schema).
struct EquiJoin {
  size_t left_term = 0;
  size_t left_col = 0;
  size_t right_term = 0;
  size_t right_col = 0;
};

struct JoinQuery {
  std::vector<TermSource> terms;
  std::vector<EquiJoin> equi_joins;
  // Optional residual selection over the concatenated tuple (term order).
  ExprPtr residual;
  // Optional projection: indexes into the concatenated tuple. Empty = all.
  std::vector<size_t> projection;
  // Multiplied into every output count (compensation queries pass -1).
  int64_t sign = +1;
};

// Execution statistics, accumulated across queries by the IVM layer to
// report per-experiment work (tuples read, index probes, rows emitted).
struct ExecStats {
  uint64_t input_rows = 0;    // rows fetched from all term sources
  uint64_t index_probes = 0;  // point lookups against table hash indexes
  uint64_t output_rows = 0;   // rows emitted after selection/projection
  uint64_t queries = 0;       // JoinQuery executions
  // Rows eliminated early by single-term conjuncts of the residual
  // selection pushed below the join.
  uint64_t pushdown_filtered = 0;
  // Zero-copy accounting: input rows deep-copied into executor-owned
  // storage (base-table probes and scans) vs borrowed (referenced in place
  // from caller-owned delta rows).
  uint64_t rows_copied = 0;
  uint64_t rows_borrowed = 0;
  uint64_t bytes_copied = 0;
  uint64_t bytes_borrowed = 0;
  // Wall time inside JoinExecutor::Execute, so callers can split executor
  // cost from transaction/WAL/capture overhead.
  uint64_t exec_nanos = 0;

  void Add(const ExecStats& o) {
    input_rows += o.input_rows;
    index_probes += o.index_probes;
    output_rows += o.output_rows;
    queries += o.queries;
    pushdown_filtered += o.pushdown_filtered;
    rows_copied += o.rows_copied;
    rows_borrowed += o.rows_borrowed;
    bytes_copied += o.bytes_copied;
    bytes_borrowed += o.bytes_borrowed;
    exec_nanos += o.exec_nanos;
  }
};

}  // namespace rollview

#endif  // ROLLVIEW_RA_JOIN_QUERY_H_
