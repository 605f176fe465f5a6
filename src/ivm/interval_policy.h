// Copyright 2026 The rollview Authors.
//
// Interval policies: "choose a propagation interval length delta" (Figures
// 5 and 10). The interval is the paper's tuning knob balancing per-query
// cost against query count and contention (Sec. 3.3); RollingPropagate
// allows one policy per base relation (Sec. 3.4).
//
// The paper leaves interval choice as an open tuning problem. The
// IntervalController below closes the loop: it consumes a periodic
// ContentionSnapshot (per-class lock-manager counters, driver step
// outcomes, delta backlog) and AIMD-adjusts a shared rows-per-query target
// -- multiplicative shrink when foreground OLTP is suffering (lock
// waits/timeouts) or maintenance keeps losing deadlocks, additive grow
// when calm -- which AdaptiveContentionInterval translates into
// per-relation CSN interval widths via DeltaTable::TsAfterRows. Load
// shedding is not the controller's job: MaintenanceService sheds on the
// time-domain freshness SLO and on WAL-full pressure.

#ifndef ROLLVIEW_IVM_INTERVAL_POLICY_H_
#define ROLLVIEW_IVM_INTERVAL_POLICY_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>

#include "capture/delta_table.h"
#include "common/csn.h"

namespace rollview {

class IntervalPolicy {
 public:
  virtual ~IntervalPolicy() = default;

  // The end of the next propagation interval starting at `from`, given that
  // delta rows are published up to `ready` (the capture high-water mark).
  // Must return a value in [from, ready]; returning `from` means "cannot
  // advance yet".
  virtual Csn NextBoundary(Csn from, Csn ready, const DeltaTable& delta) = 0;

  // Partition-aware variant: a strip that only processes `filter`'s slice
  // of the delta should size its interval to the rows *it* will read, not
  // the full stream (at P partitions a density-based policy would otherwise
  // cut intervals P times too short). Policies that size by row counts
  // override this; others inherit the filter-blind default. A null filter
  // means unpartitioned.
  virtual Csn NextBoundaryFiltered(Csn from, Csn ready,
                                   const DeltaTable& delta,
                                   const DeltaPartitionFilter* /*filter*/) {
    return NextBoundary(from, ready, delta);
  }
};

// Fixed interval length in commit-sequence units.
class FixedInterval : public IntervalPolicy {
 public:
  explicit FixedInterval(Csn length) : length_(length) {}

  Csn NextBoundary(Csn from, Csn ready, const DeltaTable&) override {
    return std::min<Csn>(from + length_, ready);
  }

 private:
  Csn length_;
};

// Adaptive: size each interval to roughly `target_rows` delta rows, so
// frequently-updated relations get short (in time) intervals and
// rarely-updated ones get long intervals -- the star-schema motivation of
// Sec. 3.4 expressed as a per-relation policy.
class TargetRowsInterval : public IntervalPolicy {
 public:
  explicit TargetRowsInterval(size_t target_rows)
      : target_rows_(target_rows) {}

  Csn NextBoundary(Csn from, Csn ready, const DeltaTable& delta) override {
    if (from >= ready) return from;
    return delta.TsAfterRows(from, target_rows_, ready);
  }

  Csn NextBoundaryFiltered(Csn from, Csn ready, const DeltaTable& delta,
                           const DeltaPartitionFilter* filter) override {
    if (from >= ready) return from;
    return delta.TsAfterRows(from, target_rows_, ready, filter);
  }

 private:
  size_t target_rows_;
};

// Greedy: always consume everything captured so far (one big interval).
class DrainInterval : public IntervalPolicy {
 public:
  Csn NextBoundary(Csn from, Csn ready, const DeltaTable&) override {
    return std::max(from, ready);
  }
};

// One observation window of contention signals, assembled by
// MaintenanceService after each propagation step from *deltas* of the
// LockManager per-class counters, the driver's own step outcomes, and the
// propagator's backlog. All fields are windowed counts except backlog_rows,
// which is a current level. No wall clocks, so the controller is
// deterministic under simulation.
struct ContentionSnapshot {
  // Foreground (OLTP-class) suffering: the signal the controller exists to
  // minimize.
  uint64_t oltp_waits = 0;
  uint64_t oltp_timeouts = 0;
  // Maintenance deadlock victims: propagation transactions repeatedly
  // losing to OLTP.
  uint64_t maintenance_deadlock_victims = 0;
  // Driver-level transient step failures in the window.
  uint64_t step_transient_failures = 0;
  // Current level: captured-but-unpropagated delta rows.
  uint64_t backlog_rows = 0;
};

// Per-view AIMD controller over the rows-per-forward-query target and the
// inter-strip pause. Purely reactive and clock-free: all inputs arrive via
// Observe()/OnTransientStepFailure(), so unit tests drive it with
// synthetic snapshot sequences. Thread-safe (the propagate driver mutates
// it; policies and observers read it).
class IntervalController {
 public:
  struct Options {
    // AIMD bounds and steps for the rows-per-query target.
    size_t initial_target_rows = 256;
    size_t min_target_rows = 16;
    size_t max_target_rows = 4096;
    double shrink_factor = 0.5;  // multiplicative decrease when contended
    size_t grow_rows = 32;       // additive increase when calm
    // A window counts as contended when any of these thresholds is met.
    uint64_t oltp_wait_threshold = 1;      // oltp waits + timeouts
    uint64_t victim_threshold = 1;         // maintenance deadlock victims
    // Time-domain AIMD: shrinking the row target alone cannot reduce the
    // *rate* of lock-order collisions (smaller strips just run more
    // often), so contended windows also escalate a recommended pause
    // before the next strip -- multiplicative increase from pause_initial
    // up to pause_max -- and calm windows decay it multiplicatively back
    // to zero. The controller only recommends; MaintenanceService applies
    // the pause between propagation steps. pause_initial == 0 disables
    // pacing.
    std::chrono::microseconds pause_initial{500};
    std::chrono::microseconds pause_max{20000};
    double pause_multiplier = 2.0;
    double pause_decay = 0.5;
  };

  struct Stats {
    uint64_t observations = 0;
    uint64_t shrinks = 0;            // multiplicative decreases (Observe)
    uint64_t grows = 0;              // additive increases
    uint64_t transient_shrinks = 0;  // OnTransientStepFailure decreases
    uint64_t pace_escalations = 0;   // pause increases (either path)
  };

  IntervalController() : IntervalController(Options{}) {}
  explicit IntervalController(Options options);

  // Feeds one observation window and applies AIMD.
  void Observe(const ContentionSnapshot& snapshot);

  // Immediate multiplicative shrink on a transient step failure (deadlock
  // victim or lock timeout), so the supervisor's retry of the step runs
  // with the smaller interval rather than re-colliding at the old size.
  void OnTransientStepFailure();

  // Restores the AIMD state (row target, pause) to a fresh controller's.
  // Called when the maintenance driver restarts after kFailed: the
  // contention regime that drove the target down died with the old
  // driver, and resuming from a stale minimum would cripple the restarted
  // one. Cumulative stats survive.
  void Reset();

  // Current rows-per-forward-query target, always within [min, max].
  size_t target_rows() const;
  // Recommended pause before the next propagation step; zero when calm.
  std::chrono::microseconds recommended_pause() const;
  Stats GetStats() const;

  const Options& options() const { return options_; }

 private:
  static bool Contended(const Options& opt, const ContentionSnapshot& s);
  void ShrinkLocked();
  void EscalatePauseLocked();

  Options options_;
  mutable std::mutex mu_;
  size_t target_rows_;
  std::chrono::microseconds pause_{0};
  Stats stats_;
};

// Adaptive policy: sizes each relation's interval to the controller's
// current rows-per-query target. One shared controller serves all of a
// view's relations -- the per-relation delta densities (TsAfterRows) turn
// the common row target into per-relation CSN widths, which is exactly the
// paper's n-knob setup with the knobs coupled to one feedback signal.
class AdaptiveContentionInterval : public IntervalPolicy {
 public:
  explicit AdaptiveContentionInterval(const IntervalController* controller)
      : controller_(controller) {}

  Csn NextBoundary(Csn from, Csn ready, const DeltaTable& delta) override;
  Csn NextBoundaryFiltered(Csn from, Csn ready, const DeltaTable& delta,
                           const DeltaPartitionFilter* filter) override;

 private:
  const IntervalController* controller_;
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_INTERVAL_POLICY_H_
