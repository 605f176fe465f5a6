#include "ivm/parallel_rolling.h"

#include <algorithm>

#include "ivm/partition.h"

namespace rollview {

Result<std::unique_ptr<PartitionedRollingPropagator>>
PartitionedRollingPropagator::Create(ViewManager* views, View* view,
                                     const PolicyFactory& make_policies,
                                     ParallelRollingOptions options) {
  if (options.partitions == 0) {
    return Status::InvalidArgument("partitions must be >= 1");
  }
  const uint32_t count = options.partitions;
  const size_t n = view->resolved.num_terms();

  // Repartition guard: durable cursor chains written under a different
  // partition count are only reusable when the whole durable state has
  // settled to ONE uniform frontier -- every chain at the same per-relation
  // frontier vector, fully compensated (tcomp == tfwd, no pending strips).
  // Below that bar the old chains describe propagation progress of slices
  // that no longer exist, and resuming would double- or under-propagate.
  {
    std::map<uint32_t, CursorState> stored = view->LoadAllCursors();
    bool mismatch = false;
    for (const auto& [p, state] : stored) {
      if (state.valid && (state.num_partitions != count || p >= count)) {
        mismatch = true;
        break;
      }
    }
    if (mismatch) {
      const std::vector<Csn>* frontier = nullptr;
      uint64_t next_seq = 1;
      for (const auto& [p, state] : stored) {
        if (!state.valid) continue;
        bool settled = state.tfwd == state.tcomp;
        for (const auto& list : state.strips) {
          if (!list.empty()) settled = false;
        }
        if (!settled || state.tfwd.size() != n ||
            (frontier != nullptr && state.tfwd != *frontier)) {
          return Status::InvalidArgument(
              "cannot repartition view '" + view->name +
              "': durable cursors from a different partition count have "
              "not settled to a uniform frontier");
        }
        frontier = &state.tfwd;
        next_seq = std::max(next_seq, state.next_step_seq);
      }
      if (frontier != nullptr) {
        // Reseed: every new strip starts at the settled frontier, and the
        // step-sequence chains continue past the old generation's maximum
        // so recovery never sees a per-partition sequence regress.
        std::vector<Csn> start = *frontier;
        view->ClearCursors();
        for (uint32_t p = 0; p < count; ++p) {
          CursorState seed;
          seed.tfwd = start;
          seed.tcomp = start;
          seed.next_step_seq = next_seq;
          seed.num_partitions = count;
          view->StoreCursors(std::move(seed), p);
        }
      } else {
        view->ClearCursors();
      }
    }
  }

  std::unique_ptr<PartitionedRollingPropagator> out(
      new PartitionedRollingPropagator());
  out->views_ = views;
  out->view_ = view;
  out->hwm_slots_ = std::make_unique<std::atomic<Csn>[]>(count);
  out->strips_.reserve(count);
  for (uint32_t p = 0; p < count; ++p) {
    RollingOptions strip_options = options.rolling;
    ROLLVIEW_ASSIGN_OR_RETURN(
        strip_options.partition,
        ResolvePartitionSlice(view->resolved, p, count));
    std::vector<std::unique_ptr<IntervalPolicy>> policies = make_policies();
    if (policies.size() != n) {
      return Status::InvalidArgument(
          "policy factory must produce one policy per base relation");
    }
    out->strips_.push_back(std::make_unique<RollingPropagator>(
        views, view, std::move(policies), std::move(strip_options)));
    out->hwm_slots_[p].store(out->strips_[p]->high_water_mark(),
                             std::memory_order_release);
    out->strips_[p]->set_hwm_hook(
        [coord = out.get(), p](Csn local) { coord->FoldHwm(p, local); });
  }
  out->pool_ = std::make_unique<WorkerPool>(count - 1);
  return out;
}

void PartitionedRollingPropagator::FoldHwm(uint32_t p, Csn local) {
  std::atomic<Csn>& slot = hwm_slots_[p];
  Csn cur = slot.load(std::memory_order_relaxed);
  while (local > cur &&
         !slot.compare_exchange_weak(cur, local, std::memory_order_acq_rel)) {
  }
  Csn floor = kMaxCsn;
  for (uint32_t q = 0; q < partitions(); ++q) {
    floor = std::min(floor, hwm_slots_[q].load(std::memory_order_acquire));
  }
  if (floor == kMaxCsn) return;
  if (hwm_hook_) {
    hwm_hook_(floor);
  } else {
    view_->delta_hwm.Advance(floor);
  }
}

Result<bool> PartitionedRollingPropagator::Step() {
  const size_t P = strips_.size();
  std::vector<Status> statuses(P, Status::OK());
  std::vector<uint8_t> advanced(P, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(P);
  for (size_t p = 0; p < P; ++p) {
    tasks.push_back([this, p, &statuses, &advanced] {
      Result<bool> r = strips_[p]->Step();
      if (r.ok()) {
        advanced[p] = r.value() ? 1 : 0;
      } else {
        statuses[p] = r.status();
      }
    });
  }
  pool_->RunAll(std::move(tasks));
  for (size_t p = 0; p < P; ++p) {
    // Surface the first failure; the round itself is a barrier, so every
    // strip has already finished (and, on failure, cancelled or retained
    // its undo state).
    ROLLVIEW_RETURN_NOT_OK(statuses[p]);
  }
  bool any = false;
  for (uint8_t a : advanced) any = any || a != 0;
  return any;
}

Result<bool> PartitionedRollingPropagator::TryFinish() {
  const size_t P = strips_.size();
  std::vector<Status> statuses(P, Status::OK());
  std::vector<uint8_t> settled(P, 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(P);
  for (size_t p = 0; p < P; ++p) {
    tasks.push_back([this, p, &statuses, &settled] {
      Result<bool> r = strips_[p]->TryFinish();
      if (r.ok()) {
        settled[p] = r.value() ? 1 : 0;
      } else {
        statuses[p] = r.status();
      }
    });
  }
  pool_->RunAll(std::move(tasks));
  for (size_t p = 0; p < P; ++p) {
    ROLLVIEW_RETURN_NOT_OK(statuses[p]);
  }
  bool all = true;
  for (uint8_t s : settled) all = all && s != 0;
  return all;
}

Status PartitionedRollingPropagator::RunUntil(Csn target) {
  return views_->StepUntil(
      target, [this] { return high_water_mark(); },
      [this](bool* advanced) -> Status {
        ROLLVIEW_ASSIGN_OR_RETURN(*advanced, Step());
        return *advanced ? Status::OK() : TryFinish().status();
      });
}

Csn PartitionedRollingPropagator::high_water_mark() const {
  Csn hwm = kMaxCsn;
  for (const auto& strip : strips_) {
    hwm = std::min(hwm, strip->high_water_mark());
  }
  return hwm == kMaxCsn ? kNullCsn : hwm;
}

uint64_t PartitionedRollingPropagator::BacklogRows() const {
  uint64_t total = 0;
  for (const auto& strip : strips_) total += strip->BacklogRows();
  return total;
}

RollingPropagator::Stats PartitionedRollingPropagator::rolling_stats() const {
  RollingPropagator::Stats out;
  for (const auto& strip : strips_) {
    const RollingPropagator::Stats& s = strip->rolling_stats();
    out.steps += s.steps;
    out.forward_queries += s.forward_queries;
    out.forward_skipped += s.forward_skipped;
    out.compensation_segments += s.compensation_segments;
  }
  return out;
}

RunnerStats PartitionedRollingPropagator::runner_stats() const {
  RunnerStats out;
  for (const auto& strip : strips_) {
    const RunnerStats& s = strip->runner()->stats();
    out.queries += s.queries;
    out.forward_queries += s.forward_queries;
    out.comp_queries += s.comp_queries;
    out.retries += s.retries;
    out.retries_aborted += s.retries_aborted;
    out.retries_busy += s.retries_busy;
    out.rows_appended += s.rows_appended;
    out.exec.Add(s.exec);
  }
  return out;
}

ComputeDeltaStats PartitionedRollingPropagator::compute_delta_stats() const {
  ComputeDeltaStats out;
  for (const auto& strip : strips_) {
    const ComputeDeltaStats& s = strip->compute_delta_stats();
    out.invocations += s.invocations;
    out.queries_issued += s.queries_issued;
    out.queries_skipped += s.queries_skipped;
    out.max_depth = std::max(out.max_depth, s.max_depth);
  }
  return out;
}

void PartitionedRollingPropagator::SetTracers(
    const std::vector<obs::StepTracer*>& tracers) {
  for (size_t p = 0; p < strips_.size(); ++p) {
    strips_[p]->set_tracer(p < tracers.size() ? tracers[p] : nullptr);
  }
}

}  // namespace rollview
