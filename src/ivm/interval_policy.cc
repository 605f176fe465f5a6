#include "ivm/interval_policy.h"

namespace rollview {

IntervalController::IntervalController(Options options)
    : options_(options), target_rows_(options.initial_target_rows) {
  if (options_.min_target_rows == 0) options_.min_target_rows = 1;
  if (options_.max_target_rows < options_.min_target_rows) {
    options_.max_target_rows = options_.min_target_rows;
  }
  target_rows_ = std::clamp(target_rows_, options_.min_target_rows,
                            options_.max_target_rows);
}

bool IntervalController::Contended(const Options& opt,
                                   const ContentionSnapshot& s) {
  if (s.oltp_waits + s.oltp_timeouts >= opt.oltp_wait_threshold &&
      opt.oltp_wait_threshold > 0) {
    return true;
  }
  if (s.maintenance_deadlock_victims >= opt.victim_threshold &&
      opt.victim_threshold > 0) {
    return true;
  }
  // Step-level transient failures are deadlock/timeout aborts seen by the
  // driver itself -- contention even if the windowed lock counters were
  // reset by someone else.
  return s.step_transient_failures > 0;
}

void IntervalController::ShrinkLocked() {
  size_t shrunk = static_cast<size_t>(
      static_cast<double>(target_rows_) * options_.shrink_factor);
  target_rows_ = std::max(shrunk, options_.min_target_rows);
}

void IntervalController::EscalatePauseLocked() {
  if (options_.pause_initial.count() == 0) return;
  if (pause_.count() == 0) {
    pause_ = options_.pause_initial;
  } else {
    pause_ = std::min(
        options_.pause_max,
        std::chrono::microseconds(static_cast<int64_t>(
            static_cast<double>(pause_.count()) * options_.pause_multiplier)));
  }
  stats_.pace_escalations++;
}

void IntervalController::Observe(const ContentionSnapshot& snapshot) {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.observations++;

  const bool contended = Contended(options_, snapshot);
  if (contended) {
    if (target_rows_ > options_.min_target_rows) {
      ShrinkLocked();
      stats_.shrinks++;
    }
    // Space the strips out in time as well: at the row-target floor this is
    // the only lever left against lock-order collisions.
    EscalatePauseLocked();
  } else {
    if (target_rows_ < options_.max_target_rows) {
      target_rows_ = std::min(target_rows_ + options_.grow_rows,
                              options_.max_target_rows);
      stats_.grows++;
    }
    pause_ = std::chrono::microseconds(static_cast<int64_t>(
        static_cast<double>(pause_.count()) * options_.pause_decay));
    if (pause_ < options_.pause_initial) pause_ = std::chrono::microseconds(0);
  }
}

void IntervalController::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  target_rows_ = std::clamp(options_.initial_target_rows,
                            options_.min_target_rows,
                            options_.max_target_rows);
  pause_ = std::chrono::microseconds(0);
}

void IntervalController::OnTransientStepFailure() {
  std::lock_guard<std::mutex> lk(mu_);
  if (target_rows_ > options_.min_target_rows) {
    ShrinkLocked();
    stats_.transient_shrinks++;
  }
  EscalatePauseLocked();
}

size_t IntervalController::target_rows() const {
  std::lock_guard<std::mutex> lk(mu_);
  return target_rows_;
}

std::chrono::microseconds IntervalController::recommended_pause() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pause_;
}

IntervalController::Stats IntervalController::GetStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

Csn AdaptiveContentionInterval::NextBoundary(Csn from, Csn ready,
                                             const DeltaTable& delta) {
  if (from >= ready) return from;
  return delta.TsAfterRows(from, controller_->target_rows(), ready);
}

Csn AdaptiveContentionInterval::NextBoundaryFiltered(
    Csn from, Csn ready, const DeltaTable& delta,
    const DeltaPartitionFilter* filter) {
  if (from >= ready) return from;
  return delta.TsAfterRows(from, controller_->target_rows(), ready, filter);
}

}  // namespace rollview
