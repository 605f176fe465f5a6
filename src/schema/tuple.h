// Copyright 2026 The rollview Authors.
//
// Tuple: a row of Values. DeltaRow: a tuple plus the paper's implicit
// (count, timestamp) attributes (Sec. 2):
//   * count +n  = insertion of n copies;  -n = deletion of n copies
//   * timestamp = commit time (CSN) of the transaction that made the change;
//     kNullCsn for base-table tuples (their timestamp is implicitly null)
//
// Base tables are represented uniformly as count=+1, ts=null rows wherever
// the relational operators need a common currency.

#ifndef ROLLVIEW_SCHEMA_TUPLE_H_
#define ROLLVIEW_SCHEMA_TUPLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/csn.h"
#include "common/value.h"

namespace rollview {

using Tuple = std::vector<Value>;

size_t HashTuple(const Tuple& t);
std::string TupleToString(const Tuple& t);
// Approximate heap footprint of a tuple (the borrowed/copied byte
// accounting in ExecStats).
size_t TupleApproxBytes(const Tuple& t);

struct TupleHasher {
  size_t operator()(const Tuple& t) const { return HashTuple(t); }
};

struct DeltaRow {
  Tuple tuple;
  int64_t count = 0;
  Csn ts = kNullCsn;

  DeltaRow() = default;
  DeltaRow(Tuple tuple_in, int64_t count_in, Csn ts_in)
      : tuple(std::move(tuple_in)), count(count_in), ts(ts_in) {}

  friend bool operator==(const DeltaRow& a, const DeltaRow& b) {
    return a.count == b.count && a.ts == b.ts && a.tuple == b.tuple;
  }

  std::string ToString() const;
};

// A multiset of delta rows: the common representation of delta-table
// contents and of propagation-query results.
using DeltaRows = std::vector<DeltaRow>;

// Borrowed view of delta rows owned elsewhere (see DeltaTable::ScanRefs):
// the zero-copy counterpart of DeltaRows for read-only consumers.
using DeltaRowRefs = std::vector<const DeltaRow*>;

}  // namespace rollview

#endif  // ROLLVIEW_SCHEMA_TUPLE_H_
