// Copyright 2026 The rollview Authors.
//
// QueryRunner: the Execute() primitive of Figures 4, 5 and 10. Each call
// evaluates one propagation query as its own serializable transaction,
// inserts the (signed, min-timestamped) result rows into the view delta
// table, commits, and returns the transaction's commit CSN -- the query's
// execution time t_exec, which the compensation machinery reasons about.
//
// In the paper's prototype, propagate discovers its own commit sequence
// number by updating a special global table and waiting for DPropR to
// capture it (Sec. 5). Our engine hands the commit CSN back directly; an
// optional "special table round-trip" mode reproduces the prototype's
// behavior faithfully for demonstration (see RunnerOptions).

#ifndef ROLLVIEW_IVM_QUERY_RUNNER_H_
#define ROLLVIEW_IVM_QUERY_RUNNER_H_

#include <chrono>

#include "common/result.h"
#include "ivm/partition.h"
#include "ivm/prop_query.h"
#include "ivm/region_tracker.h"
#include "ivm/view_manager.h"
#include "obs/trace.h"
#include "ra/executor.h"

namespace rollview {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct RunnerOptions {
  // Retries on transient errors (deadlock-victim aborts / lock timeouts).
  // 0 disables the per-query retry loop entirely, surfacing every transient
  // to the caller -- the supervised maintenance drivers use this to own the
  // whole backoff policy.
  int max_retries = 64;
  std::chrono::microseconds retry_backoff{200};
  // Bound on waiting for capture to publish the delta ranges a query reads;
  // expiry surfaces as transient Busy (e.g. during a capture-lag spike).
  std::chrono::milliseconds capture_wait_timeout{10000};
  // Reproduce the prototype's CSN discovery: write a marker row into a
  // special captured table and resolve the CSN through the UOW table.
  bool use_special_table_csn_resolution = false;
};

struct RunnerStats {
  uint64_t queries = 0;          // committed propagation queries
  uint64_t forward_queries = 0;  // exactly one delta term
  uint64_t comp_queries = 0;     // more than one delta term
  uint64_t retries = 0;
  uint64_t retries_aborted = 0;  // retries caused by TxnAborted
  uint64_t retries_busy = 0;     // retries caused by Busy
  uint64_t rows_appended = 0;    // view-delta rows written
  ExecStats exec;                // join-executor work
};

// Collects the view-delta rows committed by each successful Execute inside
// one multi-query protocol step. A Figure 5/10 step is *several*
// independently committed transactions (forward query + compensations); if
// one of them fails after earlier ones committed, retrying the whole step
// would duplicate the committed rows. CancelFailedStep appends the exact
// negation of everything recorded (same tuples, same timestamps, negated
// counts), so the net effect of the failed step is zero and the retry is
// safe. Negation at identical timestamps cancels in every scan window, and
// view deltas are not ts-sorted, so the late append is legal.
class StepUndoLog {
 public:
  void Record(DeltaRows rows) {
    rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
                 std::make_move_iterator(rows.end()));
  }
  void Clear() { rows_.clear(); }
  bool empty() const { return rows_.empty(); }
  const DeltaRows& rows() const { return rows_; }

 private:
  DeltaRows rows_;
};

class QueryRunner {
 public:
  QueryRunner(ViewManager* views, View* view,
              RunnerOptions options = RunnerOptions{});

  // Executes `q`; returns its execution time (commit CSN). Blocks until the
  // capture high-water mark covers every delta range in the query.
  Result<Csn> Execute(const PropQuery& q);

  ViewManager* views() const { return views_; }
  View* view() const { return view_; }

  const RunnerStats& stats() const { return stats_; }
  void ResetStats() { stats_ = RunnerStats{}; }

  // Registers this runner's RunnerStats counters directly (no mirroring):
  // the stats struct is unsynchronized, so snapshots are only meaningful
  // while the runner is quiescent. Benchmarks driving a raw propagator use
  // this; live scraping goes through MaintenanceService::RegisterMetrics.
  // The caller must DropOwner(owner) before this runner dies.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const void* owner) const;

  // Optional geometric instrumentation (Figs 6-9).
  void set_region_tracker(RegionTracker* tracker) { tracker_ = tracker; }

  // Optional step tracing: annotates the caller's open query span with row
  // counts / commit CSN / retry counts, nests a wal_append child span
  // around the view-delta append + commit, and records undo-log
  // cancellation spans. Same single-thread contract as the other setters.
  void set_tracer(obs::StepTracer* tracer) { tracer_ = tracer; }

  // Partitioned propagation: while set (and enabled), every delta term of
  // every query is filtered to the slice's partition, and committed
  // view-delta rows are stamped with the slice's partition index so crash
  // recovery attributes them to this strip's (partition, step_seq) chain.
  // The slice must outlive the runner. Same single-thread contract as the
  // other setters.
  void set_partition(const PartitionSlice* slice) { partition_ = slice; }

  // While set, every successful Execute records its committed view-delta
  // rows into `log` (multi-query steps install one around their protocol).
  void set_undo_log(StepUndoLog* log) { undo_log_ = log; }
  // Step sequence number stamped (with the view id) on every view-delta
  // append this runner commits, so crash recovery can attribute WAL-logged
  // rows to propagation steps. The propagator bumps it once per step
  // *attempt*; cancellation negations carry the failed attempt's number.
  void set_step_seq(uint64_t seq) { step_seq_ = seq; }
  uint64_t step_seq() const { return step_seq_; }
  // Cancels a failed step exactly: appends the negation of every recorded
  // row in one transaction (bounded transient retries), then clears the
  // log. A non-OK return means the view delta still holds the partial
  // step -- the caller must treat that as permanent, not retry the step.
  Status CancelFailedStep(StepUndoLog* log);

 private:
  Result<Csn> ExecuteOnce(const PropQuery& q);
  Status EnsureSpecialTable();

  ViewManager* views_;
  View* view_;
  RunnerOptions options_;
  RunnerStats stats_;
  RegionTracker* tracker_ = nullptr;
  obs::StepTracer* tracer_ = nullptr;
  const PartitionSlice* partition_ = nullptr;
  StepUndoLog* undo_log_ = nullptr;
  uint64_t step_seq_ = 0;
  TableId special_table_ = kInvalidTableId;
  int64_t special_seq_ = 0;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_QUERY_RUNNER_H_
