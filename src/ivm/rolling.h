// Copyright 2026 The rollview Authors.
//
// RollingPropagator: the rolling join propagation process of Figure 10 --
// the paper's central contribution.
//
// Differences from the Propagate process (Figure 5):
//  * each base relation R^i has its own propagation-interval policy and its
//    own forward-query frontier tfwd[i] (n tuning knobs instead of one);
//  * compensation for a forward query is deferred: when R^i performs a
//    forward query, it eagerly compensates its overlap with forward queries
//    of *lower-numbered* relations only (covering both their past strips and
//    their future extension up to the query's execution time). Overlap with
//    higher-numbered relations is compensated later, when those relations
//    perform their own forward queries -- which is why each forward query of
//    R^i (i < n) is remembered in querylist[i] until it is fully
//    compensated;
//  * the view-delta high-water mark is min_i t_comp[i], where t_comp[i] is
//    the delta-interval start of the oldest un-fully-compensated forward
//    query of R^i (or tfwd[i] if there is none) -- Theorem 4.3.
//
// In the geometry of Figs 6-9: a forward query for R^i over (y1, y2] at
// execution time t_e covers the slab (y1,y2] on axis i and (0, t_e] on every
// other axis. Its overlap with lower relations' coverage at height
// y in (y1, y2] spans, on axis j < i, from the start of the oldest
// querylist[j] strip whose execution time exceeds y (CompTime) out to t_e.
// That x-extent is a step function of y changing at querylist execution
// times, so the slab is split into rectangular segments (ComInterval) and
// one ComputeDelta call compensates each.

#ifndef ROLLVIEW_IVM_ROLLING_H_
#define ROLLVIEW_IVM_ROLLING_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "ivm/compute_delta.h"
#include "ivm/interval_policy.h"
#include "ivm/partition.h"
#include "ivm/query_runner.h"

namespace rollview {

// How a forward strip's overlap with other relations' coverage is
// compensated.
enum class CompensationMode {
  // Frontier compensation (default; exact for every join width): after the
  // forward query for R^i over (y1, y2] executes at t_e, one ComputeDelta
  // call compensates the drift of EVERY other relation back from t_e to
  // its current forward frontier. Each strip's net contribution is then
  // exactly the staircase rectangle (y1, y2] x prod_{j != i} (0, tfwd_j],
  // the rectangles tile V_{t0, .} by construction (telescoping over the
  // vector of frontiers), and the high-water mark is simply min_i tfwd_i.
  kFrontier,
  // The literal Figure 10 reading: compensation deferred and merged via
  // query lists, reaching back per lower relation to CompTime and bounding
  // every higher axis by the forward query's execution time. Exact for
  // two-relation views (machine-verified signed coverage). For three or
  // more relations this bound over-subtracts a slab the older strip never
  // covered, and a change committing between two maintenance transactions
  // can be lost -- see RollingTripleOverlapTest.DeferredModeCounterexample
  // for the minimal reproduction. Kept for the n=2 figure geometry and for
  // the deferred-merging query-count comparison (E6).
  kDeferredFigure10,
};

struct RollingOptions {
  RunnerOptions runner;
  ComputeDeltaOptions compute_delta;
  CompensationMode compensation = CompensationMode::kFrontier;
  // Partitioned propagation: when partition.enabled(), this propagator is
  // one strip of a partitioned driver -- every delta term it reads is
  // filtered to the slice, interval policies size by the slice's row
  // counts, its cursor chain lives at View cursor slot partition.index,
  // and its view-delta rows are stamped with the partition. The default
  // slice (count 1) is the classic single-driver propagator at slot 0.
  PartitionSlice partition;
};

class RollingPropagator {
 public:
  // `policies` supplies one interval policy per base relation (size must
  // equal the view's term count).
  RollingPropagator(ViewManager* views, View* view,
                    std::vector<std::unique_ptr<IntervalPolicy>> policies,
                    RollingOptions options = RollingOptions{});

  // Convenience: the same fixed interval for every relation.
  RollingPropagator(ViewManager* views, View* view, Csn uniform_interval,
                    RollingOptions options = RollingOptions{});

  // One iteration of the Figure 10 loop: choose the relation with the
  // smallest forward frontier, prune fully-compensated queries, perform one
  // forward query, compensate. Returns true if any frontier advanced.
  Result<bool> Step();

  // Quiescence check: a remembered forward strip of R^j is fully
  // compensated the moment the *remaining* overlap regions -- axis k > j
  // over (tfwd[k], strip.exec] -- contain no delta rows, because
  // compensation of an empty region is itself empty. When every pending
  // strip passes this test (all frontiers caught up, no trailing changes),
  // the strips are retired and the high-water mark lifts to the forward
  // frontier. Returns true if everything settled. Without this, the mark
  // tracks the oldest pending strip's start (min t_comp), which in
  // continuous operation advances via pruning but at end-of-history would
  // stall one strip behind the frontier forever.
  Result<bool> TryFinish();

  // Steps until the high-water mark reaches `target`, using TryFinish when
  // stepping alone cannot settle the tail.
  Status RunUntil(Csn target);

  // min_i t_comp[i] (Theorem 4.3); also mirrored into the view control.
  Csn high_water_mark() const;

  // Captured-but-unpropagated depth: total delta rows between each
  // relation's forward frontier and the capture high-water mark. The
  // backlog level the ContentionSnapshot reports to the interval
  // controller. Call from the propagate driver thread.
  uint64_t BacklogRows() const;

  Csn tfwd(size_t i) const { return tfwd_[i]; }
  Csn tcomp(size_t i) const { return tcomp_[i]; }

  struct Stats {
    uint64_t steps = 0;
    uint64_t forward_queries = 0;
    uint64_t forward_skipped = 0;       // empty-range frontier advances
    uint64_t compensation_segments = 0; // ComputeDelta calls for compensation
  };
  const Stats& rolling_stats() const { return stats_; }
  const ComputeDeltaStats& compute_delta_stats() const {
    return compute_delta_.stats();
  }
  QueryRunner* runner() { return &runner_; }

  // Step tracing: each Step() that does work (including empty-skip frontier
  // advances) becomes one root span carrying the chosen relation and
  // interval (t_a, t_b]; the forward query, compensation recursion, WAL
  // appends and undo activity nest under it. Call from the driving thread
  // before stepping; null detaches.
  void set_tracer(obs::StepTracer* tracer);

  // Diverts the view hwm advances this strip would make (after publishing
  // cursors, and on TryFinish settles) into `hook` instead of
  // View::delta_hwm. The partitioned coordinator hooks every strip, even
  // at P = 1: it folds each strip's local mark into a per-partition slot
  // and advances the view to the minimum over slots -- one strip racing
  // ahead must not publish a mark the laggard strips cannot yet justify.
  // Set before stepping; null restores the direct advance.
  void set_hwm_hook(std::function<void(Csn)> hook) {
    hwm_hook_ = std::move(hook);
  }

  const PartitionSlice& partition() const { return partition_; }

 private:
  // ivm/view.h's ForwardStrip: {lo, hi, exec} = delta interval start/end and
  // execution time (commit CSN). Shared with CursorState so querylists are
  // part of the durable cursor state.
  using ForwardRecord = ForwardStrip;

  // The fallible body of Step(): forward query over (y1, y2] on relation i
  // plus its mode-specific compensation. Runs with the step-undo log
  // attached so a mid-protocol failure can be cancelled exactly.
  Status ForwardAndCompensate(size_t i, Csn y1, Csn y2);
  // Publishes the post-step cursor state: mirrors it into the view control
  // (View::StoreCursors), appends the kViewCursor record making step
  // `completed_seq` durable, THEN advances the high-water mark -- so a
  // durable hwm advance always has a durable cursor justifying it.
  void PublishCursors(uint64_t completed_seq);
  std::vector<std::vector<ForwardStrip>> SnapshotStrips() const;
  // The delta filter for term i, or null when unpartitioned.
  const DeltaPartitionFilter* FilterFor(size_t i) const {
    return partition_.enabled() ? &filters_[i] : nullptr;
  }
  // Routes this strip's local hwm through the coordinator hook when one is
  // installed, else advances the view directly.
  void PublishHwm();
  // Removes fully-compensated queries (execution time <= t) from every
  // query list and recomputes t_comp (paper's PruneQueryLists).
  void PruneQueryLists(Csn t);
  // Start of the compensation extent on axis j for a segment beginning at
  // t: the lo of the oldest querylist[j] record with exec > t, else tfwd[j].
  Csn CompTime(size_t j, Csn t) const;
  // End of the rectangular segment starting at t: the smallest exec time
  // > t among querylist[0..i-1], capped at `cap` (paper's ComInterval).
  Csn SegmentEnd(size_t i, Csn t, Csn cap) const;
  void RecomputeTcomp();

  ViewManager* views_;
  View* view_;
  std::vector<std::unique_ptr<IntervalPolicy>> policies_;
  QueryRunner runner_;
  ComputeDeltaOp compute_delta_;
  bool skip_empty_ = true;
  CompensationMode mode_ = CompensationMode::kFrontier;
  PartitionSlice partition_;
  std::vector<DeltaPartitionFilter> filters_;  // per-term; empty if serial
  std::function<void(Csn)> hwm_hook_;

  size_t n_;
  std::vector<Csn> tfwd_;
  std::vector<Csn> tcomp_;
  std::vector<std::deque<ForwardRecord>> querylist_;
  StepUndoLog undo_log_;
  uint64_t step_seq_ = 1;  // next step-attempt sequence number
  Stats stats_;
  obs::StepTracer* tracer_ = nullptr;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_ROLLING_H_
