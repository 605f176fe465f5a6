// Copyright 2026 The rollview Authors.
//
// PartitionedRollingPropagator: rolling propagation (Figure 10) cut into P
// hash-partitioned strips -- the one propagation driver of the maintenance
// service. The view's delta streams are split into P disjoint slices by a
// join-equivalence-class key (ivm/partition.h); each slice gets its own
// RollingPropagator strip with private cursors, undo log, interval policies
// and step-sequence chain, and every round runs the strips concurrently on
// the calling thread plus a pool of P-1 workers. Because two delta rows can
// join only when they agree on the join key, a strip's forward and
// compensation queries over its slice produce exactly the view rows whose
// key hashes to its partition -- the strips' outputs tile the unpartitioned
// output, each strip's sub-interval refresh is independently legal (Def. 4.2
// applied per slice), and the view-level high-water mark is the minimum
// over the strips' local marks. P = 1 is the serial rolling propagator: one
// unpartitioned strip at cursor slot 0, run inline on the calling thread.
//
// Durability: every strip logs kViewCursor records tagged with its
// partition index and stamps its view-delta rows with (partition,
// step_seq), so crash recovery (ViewManager::Recover) rebuilds each
// partition's chain independently and restores hwm = min over partitions.
// A crash can leave the strips at different frontiers; recovery resumes
// each exactly where its durable chain ends.

#ifndef ROLLVIEW_IVM_PARALLEL_ROLLING_H_
#define ROLLVIEW_IVM_PARALLEL_ROLLING_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/worker_pool.h"
#include "ivm/rolling.h"

namespace rollview {

namespace obs {
class ViewFreshness;
}  // namespace obs

struct ParallelRollingOptions {
  // Per-strip propagation options; the partition slice field is filled in
  // per strip by Create.
  RollingOptions rolling;
  // Number of partition strips. Must be >= 1; 1 is the serial rolling
  // propagator (one unpartitioned strip at cursor slot 0, any view shape).
  uint32_t partitions = 2;
};

class PartitionedRollingPropagator {
 public:
  // Builds the per-relation interval policies of one strip. Called once per
  // partition; strips must not share policy objects (policies are stateful
  // per strip only via the shared IntervalController, which is
  // thread-safe).
  using PolicyFactory =
      std::function<std::vector<std::unique_ptr<IntervalPolicy>>()>;

  // Fails with InvalidArgument when partitions > 1 and the view has no
  // join-equivalence class covering every term (it cannot be
  // hash-partitioned -- use one partition), or when durable cursors from a
  // different partition count exist that have not settled to one uniform
  // frontier (repartitioning is only legal from a settled state; this
  // guards a change to or from P = 1 too).
  static Result<std::unique_ptr<PartitionedRollingPropagator>> Create(
      ViewManager* views, View* view, const PolicyFactory& make_policies,
      ParallelRollingOptions options);

  // One round: every strip performs one Step(), concurrently when P > 1.
  // Returns true if any strip advanced. On strip errors the round still
  // completes (the pool is a barrier) and the first error is returned;
  // failed strips have already cancelled or retained their undo state.
  Result<bool> Step();

  // Settles every strip's pending querylists (see
  // RollingPropagator::TryFinish); true when all strips settled.
  Result<bool> TryFinish();

  // Steps rounds until the view-level mark reaches `target`.
  Status RunUntil(Csn target);

  // min over strips of the strip-local mark (Theorem 4.3 per slice).
  Csn high_water_mark() const;

  // Sum of the strips' captured-but-unpropagated row counts. Call between
  // rounds (same threading contract as the strips' own BacklogRows).
  uint64_t BacklogRows() const;

  uint32_t partitions() const {
    return static_cast<uint32_t>(strips_.size());
  }
  RollingPropagator* strip(uint32_t p) { return strips_[p].get(); }

  // Aggregates over all strips; call between rounds.
  RollingPropagator::Stats rolling_stats() const;
  RunnerStats runner_stats() const;
  ComputeDeltaStats compute_delta_stats() const;

  // Per-strip step tracers (strip p uses tracers[p]; a StepTracer is a
  // single-threaded builder, so concurrent strips must not share one).
  // Size must equal partitions(); null entries detach.
  void SetTracers(const std::vector<obs::StepTracer*>& tracers);

  // Publishes each advance of the view-level minimum through `hook`
  // instead of View::delta_hwm directly (the maintenance service stamps
  // freshness boundaries before it advances the mark). Runs on whichever
  // thread ran the strip, concurrently when P > 1. Set before stepping;
  // null restores the default.
  void set_hwm_hook(std::function<void(Csn)> hook) {
    hwm_hook_ = std::move(hook);
  }

  // The published local mark of partition p (what the strip last folded
  // into the view-level minimum); starts at the strip's resumed mark.
  Csn partition_hwm(uint32_t p) const {
    return hwm_slots_[p].load(std::memory_order_acquire);
  }

 private:
  PartitionedRollingPropagator() = default;

  // Strip p's hwm hook: fold `local` into slot p, advance the view to the
  // new minimum over slots. Runs on the thread that ran strip p.
  void FoldHwm(uint32_t p, Csn local);

  ViewManager* views_ = nullptr;
  View* view_ = nullptr;
  std::vector<std::unique_ptr<RollingPropagator>> strips_;
  // Monotone per-partition marks; a racy minimum over them only ever
  // under-approximates, and View::delta_hwm is itself monotone.
  std::unique_ptr<std::atomic<Csn>[]> hwm_slots_;
  std::function<void(Csn)> hwm_hook_;
  // P-1 threads: RunAll's caller runs strips too.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_PARALLEL_ROLLING_H_
