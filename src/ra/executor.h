// Copyright 2026 The rollview Authors.
//
// JoinExecutor: evaluates a JoinQuery against a Db.
//
// Strategy: greedy left-deep join starting from the smallest *admitted*
// (post-pushdown) materialized kRows term. Each next term is chosen among
// terms connected to the bound set by at least one equi-join predicate:
//
//  * a base term whose join column is hash-indexed is fetched by per-row
//    index probes (small delta driving lookups into a large base table);
//  * otherwise the term is materialized and hash-joined; disconnected terms
//    fall back to a cartesian product.
//
// Zero-copy contract: kRows tuples are *borrowed* in place from the
// caller's DeltaRows; only base-table probe and scan results are
// deep-copied into executor-owned storage. ExecStats::rows_copied /
// rows_borrowed account the split.
//
// Current-state base reads require `txn` to hold (at least) an S lock on
// the table; the executor acquires it if the caller has not.

#ifndef ROLLVIEW_RA_EXECUTOR_H_
#define ROLLVIEW_RA_EXECUTOR_H_

#include <vector>

#include "common/result.h"
#include "ra/join_query.h"
#include "storage/db.h"

namespace rollview {

class JoinExecutor {
 public:
  explicit JoinExecutor(Db* db) : db_(db) {}

  // Evaluates `query`. `txn` is required iff any term is kBaseCurrent.
  // `stats`, if non-null, is incremented with this execution's work.
  Result<DeltaRows> Execute(const JoinQuery& query, Txn* txn,
                            ExecStats* stats = nullptr);

 private:
  Db* db_;
};

}  // namespace rollview

#endif  // ROLLVIEW_RA_EXECUTOR_H_
