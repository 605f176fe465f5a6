// Copyright 2026 The rollview Authors.
//
// MaintenanceService: the deployment shape of the paper's prototype
// (Figure 11) as a managed component -- one background propagation driver
// and one background apply driver per view, independently pausable, plus a
// ViewManager-wide retention service. Propagation is always rolling
// propagation (Figure 10) run by a PartitionedRollingPropagator: P
// hash-partitioned strips, or one strip on the driver thread when P = 1 or
// the view cannot be partitioned. The propagate and apply drivers are
// "completely independent" apart from producer/consumer ordering (Sec. 1);
// pausing either (e.g. during load spikes) never affects correctness, only
// staleness.
//
// The drivers are *supervised*: transient errors (Status::IsTransient --
// deadlock-victim aborts, lock/capture timeouts) never kill a driver.
// Instead the driver backs off with capped, seeded-jitter exponential
// delays and retries, walking a per-driver health state machine:
//
//   kRunning --(degraded_after consecutive transient failures)--> kDegraded
//   kDegraded --(next success)--> kRunning
//   any --(permanent error, or failed_after consecutive failures)--> kFailed
//
// A kFailed driver exits its loop with the error recorded; Health() and
// last_error() make that observable long before Stop(). Recovery work is
// counted in per-driver DriverStats (transient errors by cause, recoveries,
// time spent backing off).
//
// The hand-offs are event driven: an idle driver sleeps on its upstream
// CsnFrontier (common/csn_frontier.h) -- the propagate driver on the view
// manager's delta-ready frontier, the apply driver on the view's delta
// high-water mark -- and wakes as soon as it advances. kPipelineHeartbeat
// bounds every such sleep so scrub cadence and SLO evaluation still run on
// an idle system.

#ifndef ROLLVIEW_IVM_MAINTENANCE_H_
#define ROLLVIEW_IVM_MAINTENANCE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/csn_frontier.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "ivm/apply.h"
#include "ivm/checkpoint.h"
#include "ivm/interval_policy.h"
#include "ivm/parallel_rolling.h"
#include "ivm/retention.h"
#include "ivm/scrub.h"
#include "obs/freshness.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "storage/lock_manager.h"

namespace rollview {

// Health of one background driver. kStopped: not started or cleanly
// stopped. kShedding: making progress while the service sheds load, so
// non-critical work is paused (see SheddingReason). kFailed is terminal
// until the next Start().
enum class DriverHealth { kStopped, kRunning, kShedding, kDegraded, kFailed };

const char* DriverHealthName(DriverHealth health);

// Why the service is shedding load: one state fed by two typed inputs.
// kWalFull is pressure -- the durable WAL is out of space, so maintenance
// runs at reduced cost until the flusher drains. kStaleness is the
// time-domain freshness SLO (Options::freshness_slo) burning its error
// budget. When both inputs hold, kWalFull wins: a full device is the hard
// limit, and a stalled WAL is usually why the staleness budget burns.
enum class SheddingReason : uint8_t { kNone, kWalFull, kStaleness };

// "none", "wal_full" or "staleness": the reason label of the
// rollview_shedding_reason gauge.
const char* SheddingReasonName(SheddingReason reason);

// Capped exponential backoff with symmetric jitter: the n-th consecutive
// failure sleeps min(initial * multiplier^(n-1), max) scaled by a uniform
// factor in [1 - jitter, 1 + jitter] drawn from a seeded per-driver RNG.
struct BackoffPolicy {
  std::chrono::microseconds initial{200};
  std::chrono::microseconds max{50000};  // 50 ms
  double multiplier = 2.0;
  double jitter = 0.25;
};

// Recovery bookkeeping for one driver.
struct DriverStats {
  uint64_t steps = 0;             // successful step iterations
  uint64_t transient_errors = 0;  // transient failures absorbed
  uint64_t errors_aborted = 0;    //   ... of which TxnAborted
  uint64_t errors_busy = 0;       //   ... of which Busy
  uint64_t recoveries = 0;        // successes ending a failure streak
  uint64_t degraded_entries = 0;  // kRunning/... -> kDegraded transitions
  uint64_t backoff_nanos = 0;     // total time spent backing off
};

class MaintenanceService {
 public:
  struct Options {
    // Interval sizing. kTargetRows is the open-loop policy (a fixed
    // rows-per-query target); kAdaptive closes the loop with an
    // IntervalController fed by post-step ContentionSnapshots -- AIMD on
    // the row target and on the pause between strips.
    enum class IntervalMode { kTargetRows, kAdaptive };
    IntervalMode interval_mode = IntervalMode::kTargetRows;
    // Open-loop target (delta rows per forward query), applied to every
    // relation. For custom per-relation policies construct a
    // RollingPropagator directly. Ignored in kAdaptive mode: configure
    // controller.initial_target_rows (and its bounds) instead.
    size_t target_rows_per_query = 256;
    // Number of hash partitions for rolling propagation. > 1 splits the
    // view's delta streams into that many disjoint slices by join key and
    // runs one propagation strip per slice concurrently, on the propagate
    // driver thread plus P-1 pool threads (ivm/parallel_rolling.h); the
    // view-level high-water mark is the minimum over the strips. Views
    // without a join-equivalence class covering every term cannot be
    // partitioned; the service then runs one strip and records the reason
    // (see partition_fallback()).
    uint32_t propagate_partitions = 1;
    // kAdaptive configuration.
    IntervalController::Options controller;
    // Run the apply driver (roll the MV to the high-water mark as it
    // advances). Point-in-time users leave this off and roll manually.
    bool apply_continuously = true;
    bool prune_view_delta = true;  // applier prunes applied windows
    RunnerOptions runner;

    // --- Supervision ---
    BackoffPolicy backoff;
    // Consecutive transient failures before the driver reports kDegraded.
    int degraded_after = 3;
    // Consecutive transient failures before the driver gives up (kFailed).
    // 0 means never: the driver retries transient errors forever.
    int failed_after = 64;
    // Seeds the per-driver jitter RNGs (runs reproduce under a fixed seed).
    uint64_t backoff_seed = 0x726f6c6c;

    // --- Durability ---
    // Write a kViewCheckpoint record every N successful propagation steps
    // (bounding the WAL suffix recovery must replay). 0 disables periodic
    // checkpoints; the view still gets one at Materialize and Recover.
    uint64_t checkpoint_every_steps = 0;

    // --- Consistency scrubbing ---
    // Run one scrub pass (ivm/scrub.h) every N propagate-driver step
    // iterations -- counted over every iteration, advanced or idle, so an
    // idle system still gets scrubbed. 0 disables scrubbing. Scrub errors
    // are recorded (last_error(), metrics, the kScrub trace) but never
    // propagated as step failures: a broken scrub must not take down
    // propagation.
    uint64_t scrub_every_steps = 0;
    ScrubOptions scrub;

    // --- Shedding actions ---
    // While shedding (for any SheddingReason), checkpoint cadence is
    // multiplied by kSheddingCheckpointStretch (checkpoints are a safety
    // net, not progress). on_shedding is invoked when the combined shedding
    // state changes (true = entered, false = recovered) -- never on an input
    // flip that leaves it unchanged -- from the thread driving propagation,
    // outside internal locks. Harness wiring point for retention pause and
    // UpdateStream worker backpressure.
    std::function<void(bool)> on_shedding;

    // --- Telemetry ---
    // Capacity of the step-trace journal: how many finished step / apply /
    // checkpoint traces are retained (ring buffer, O(1) memory). 0 keeps
    // tracing compiled in but disabled -- no journal is allocated and the
    // propagators run with a null tracer, so the hot path pays one branch.
    size_t trace_journal_capacity = 0;

    // --- Freshness (obs/freshness.h) ---
    // When set, the drivers stamp the per-CSN freshness pipeline: strip
    // pickup and t_comp on propagation, MV visibility on apply, exporting
    // per-view commit-to-visibility histograms with a per-stage
    // decomposition and the time-domain staleness gauge. The tracker must
    // outlive this service (commit/durable stamps come from the Db/WAL,
    // wired separately via Db::SetFreshnessTracker).
    obs::FreshnessTracker* freshness = nullptr;
    // Time-domain staleness SLO over the freshness tracker's staleness
    // signal (ignored unless `freshness` is set): the staleness input of
    // shedding. While its burn-rate evaluator latches, the service sheds
    // with SheddingReason::kStaleness; target_staleness_nanos == 0 (the
    // default) disables it.
    obs::FreshnessSloOptions freshness_slo;
  };

  // Checkpoint cadence multiplier while shedding.
  static constexpr uint64_t kSheddingCheckpointStretch = 4;

  MaintenanceService(ViewManager* views, View* view)
      : MaintenanceService(views, view, Options{}) {}
  MaintenanceService(ViewManager* views, View* view, Options options);
  ~MaintenanceService();

  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  // Starts the background drivers. Clears any error and health state left
  // over from a previous run (a stopped service can be restarted).
  void Start();
  // Stops both drivers and joins their threads. Returns the first
  // *terminal* error either driver hit (transient errors that were
  // recovered from do not surface here; see last_error()).
  Status Stop();

  // Suspend/resume individual drivers ("either process, or both, can be
  // suspended during periods of high system load", Sec. 1). A pause returns
  // only once the driver is between steps: a step already in flight
  // finishes first, and no step starts until the matching resume. Must not
  // be called from a driver thread (e.g. an on_shedding hook).
  void PausePropagation() { Pause(&propagate_driver_); }
  void ResumePropagation() { Resume(&propagate_driver_); }
  void PauseApply() { Pause(&apply_driver_); }
  void ResumeApply() { Resume(&apply_driver_); }

  // Blocks until the view delta covers `target` and (if apply is enabled)
  // the MV has been rolled there. Works whether or not Start() was called.
  // Returns Busy instead of livelocking when the driver that must make the
  // progress is paused, and the driver's error if it permanently failed.
  Status Drain(Csn target);

  // --- Observability ---

  // Worst health across the two drivers (kFailed > kDegraded > kRunning >
  // kStopped), so a single check answers "is maintenance alive".
  DriverHealth Health() const;
  DriverHealth propagate_health() const {
    return propagate_driver_.health.load(std::memory_order_acquire);
  }
  DriverHealth apply_health() const {
    return apply_driver_.health.load(std::memory_order_acquire);
  }
  // Most recent error either driver observed (transient or terminal);
  // OK if none since the last Start().
  Status last_error() const;

  DriverStats propagate_driver_stats() const;
  DriverStats apply_driver_stats() const;

  View* view() const { return view_; }
  // Query-runner counters summed over the strips, as of the last
  // propagation step. Safe from any thread.
  RunnerStats runner_stats() const;
  // Actual number of propagation strips; 0 when the service refuses to
  // propagate (see propagator()).
  uint32_t propagate_partitions() const {
    return propagator_ != nullptr ? propagator_->partitions() : 0;
  }
  // The propagation coordinator. Null only when the service refuses to
  // propagate because durable cursors conflict with the partition count
  // (Drain and the propagate driver then fail with that error).
  PartitionedRollingPropagator* propagator() const {
    return propagator_.get();
  }
  // Non-OK when Options::propagate_partitions > 1 was requested but the
  // view has no join-equivalence class covering every term, so the service
  // runs one strip. Purely informational.
  const Status& partition_fallback() const { return partition_fallback_; }
  const Applier::Stats& apply_stats() const { return applier_->stats(); }
  // Null unless checkpoint_every_steps > 0.
  CheckpointManager* checkpointer() { return checkpointer_.get(); }
  // Null unless scrub_every_steps > 0.
  Scrubber* scrubber() { return scrubber_.get(); }

  // Overload control (null / false unless interval_mode == kAdaptive).
  const IntervalController* interval_controller() const {
    return controller_.get();
  }
  // Why load is being shed right now (kNone when it is not). Mirrored
  // into propagate_health() as kShedding.
  SheddingReason shedding_reason() const {
    return shedding_reason_.load(std::memory_order_acquire);
  }
  bool shedding() const { return shedding_reason() != SheddingReason::kNone; }
  // Captured-but-unpropagated backlog, sampled at each contention
  // observation (kAdaptive only).
  const Gauge& backlog_gauge() const { return backlog_gauge_; }

  // The step-trace journal; null unless Options::trace_journal_capacity
  // > 0. Thread-safe (see obs::TraceJournal).
  obs::TraceJournal* trace_journal() const { return journal_.get(); }

  // This view's freshness channel; null unless Options::freshness was set.
  obs::ViewFreshness* freshness() const { return freshness_ch_; }
  // The time-domain SLO evaluator; null unless configured (freshness set
  // and freshness_slo.target_staleness_nanos > 0).
  const obs::FreshnessSlo* freshness_slo() const { return slo_.get(); }

  // Registers this view's maintenance telemetry on `registry` under
  // rollview_* names labeled {view="<name>"} (see docs/ALGORITHMS.md §10):
  // per-driver step outcomes and supervision counters, derived per-view
  // gauges (staleness in CSNs, hwm, backlog, shedding reason), propagation
  // query/exec/compute-delta counters, apply and checkpoint counters, and
  // the interval-controller events. Safe to call before or after Start();
  // snapshots may be taken while the drivers run (driver-local stats are
  // scraped from post-step mirrors, never the hot structs). The registry
  // must outlive this service; the destructor deregisters via DropOwner.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  struct Driver {
    explicit Driver(const char* n) : name(n) {}
    const char* name;
    std::atomic<DriverHealth> health{DriverHealth::kStopped};
    DriverStats stats;  // guarded by stats_mu_
    // Current consecutive transient-failure streak, mirrored out of the
    // driver loop so step traces can carry the retry count.
    std::atomic<int> consecutive{0};
    std::atomic<bool> paused{false};
    bool stepping = false;  // a step is in flight; guarded by wake_mu_
  };

  void Pause(Driver* driver);
  void Resume(Driver* driver);

  Status PropagateStep(bool* advanced);
  Status ApplyStep(bool* advanced);
  // Builds a ContentionSnapshot from windowed deltas of the lock-manager
  // per-class stats and the driver counters and feeds the controller.
  // Propagate driver thread only.
  void ObserveContention();
  // Recomputes the shedding reason from its two inputs (wal_full_ and the
  // freshness SLO latch) and runs ApplyShedding when the combined state
  // changes. Called on every input flip, from the thread driving
  // PropagateStep.
  void UpdateShedding();
  void ApplyShedding(bool on);
  // The health a healthy propagate step should report: kShedding while the
  // service sheds, else kRunning.
  DriverHealth SteadyHealth(const Driver* driver) const;
  // The supervised driver loop: runs `step` until stopped, absorbing
  // transient errors per the backoff policy and health state machine. A
  // step that finds nothing to do sleeps until `upstream` advances past
  // the value it had before the step (or the heartbeat expires).
  void DriverLoop(Driver* driver, const std::function<Status(bool*)>& step,
                  uint64_t salt, CsnFrontier* upstream);
  // Coordinator hwm hook (installed when freshness is tracked): stamps the
  // strip's pickup and t_comp boundaries, then advances the view hwm. The
  // advance wakes the apply driver at once, so the stamps must come first
  // or its OnVisible would find them missing. May run on pool threads.
  void PublishHwm(Csn hwm);
  // True while the durable WAL backend reports ENOSPC (always false for the
  // in-memory log).
  bool WalOutOfSpace() const;
  // Sleeps up to `d`, waking early on Stop().
  void InterruptibleSleep(std::chrono::nanoseconds d);
  void RecordError(const Status& s, bool terminal);
  // Non-OK when a drain waiting on `driver` cannot make progress: the
  // driver failed (its error) or is paused (Busy).
  Status CheckDrainProgress(const Driver& driver);
  // Blocks until current() >= target, sleeping on `wake` (which advances
  // whenever current() may have moved) and re-checking the driver's
  // progress at least once per heartbeat.
  template <typename CurrentFn>
  Status AwaitDriver(const Driver& driver, CsnFrontier* wake, Csn target,
                     CurrentFn current);

  ViewManager* views_;
  View* view_;
  Options options_;

  std::unique_ptr<PartitionedRollingPropagator> propagator_;
  // Why the view runs one strip although more were requested (view not
  // partitionable); OK when partitioning was not requested or succeeded.
  Status partition_fallback_;
  // Set when the propagator could not be constructed: durable cursors from
  // a different partition count that have not settled (see
  // PartitionedRollingPropagator::Create). Resuming those chains could
  // double- or under-propagate, so PropagateStep surfaces this as a
  // permanent error instead of running.
  Status partition_error_;
  std::unique_ptr<Applier> applier_;
  std::unique_ptr<CheckpointManager> checkpointer_;  // propagate-driver only
  // Online consistency scrubbing (null unless scrub_every_steps > 0).
  // Driven from PropagateStep on the propagate-driver thread, like the
  // checkpointer.
  std::unique_ptr<Scrubber> scrubber_;
  uint64_t steps_since_scrub_ = 0;        // propagate-driver thread only
  std::atomic<uint64_t> scrub_errors_{0};

  // Overload control (kAdaptive only). The windowed-delta baselines below
  // are touched only on the thread driving PropagateStep (the propagate
  // driver, or the caller of a synchronous Drain).
  std::unique_ptr<IntervalController> controller_;
  LockManager::Stats last_lock_stats_;
  uint64_t last_window_transient_errors_ = 0;
  Gauge backlog_gauge_;

  // Telemetry. The tracers are single-threaded builders, one per driver
  // (the journal they feed is shared and thread-safe). The mirrors are
  // post-step copies of driver-thread-local component stats, updated under
  // stats_mu_ so registry callbacks can read them from any thread without
  // racing the hot structs.
  std::unique_ptr<obs::TraceJournal> journal_;
  // Root-level checkpoint and scrub traces of the propagate driver.
  obs::StepTracer propagate_tracer_;
  obs::StepTracer apply_tracer_;
  // One tracer per partition strip: a StepTracer is a single-threaded
  // builder, so concurrent strips cannot share one. All feed the shared,
  // thread-safe journal.
  std::vector<std::unique_ptr<obs::StepTracer>> strip_tracers_;
  obs::MetricsRegistry* registry_ = nullptr;
  RunnerStats runner_mirror_;                // guarded by stats_mu_
  ComputeDeltaStats compute_delta_mirror_;   // guarded by stats_mu_
  RollingPropagator::Stats rolling_mirror_;  // guarded by stats_mu_
  Applier::Stats apply_mirror_;              // guarded by stats_mu_

  std::thread propagate_thread_;
  std::thread apply_thread_;
  std::atomic<bool> running_{false};

  // Wakes drivers sleeping on backoff/pause, and Pause() callers waiting
  // for the step in flight (Driver::stepping).
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  // The MV CSN the apply driver last rolled to; a background Drain sleeps
  // on it.
  CsnFrontier applied_;

  // Freshness pipeline (null when Options::freshness is unset). The SLO is
  // observed only by the thread driving PropagateStep.
  obs::ViewFreshness* freshness_ch_ = nullptr;
  // Start time of the running propagation round, for the pickup stamp
  // PublishHwm takes.
  std::atomic<uint64_t> strip_start_nanos_{0};
  std::unique_ptr<obs::FreshnessSlo> slo_;

  // Shedding. wal_full_ is the pressure input: latched by the propagate
  // driver on an ENOSPC-stalled WAL, cleared on the first successful step
  // once space returns (propagate driver thread only). The combined
  // state is published for shedding() and the reason gauge.
  bool wal_full_ = false;
  std::atomic<SheddingReason> shedding_reason_{SheddingReason::kNone};

  Driver propagate_driver_{"propagate"};
  Driver apply_driver_{"apply"};
  mutable std::mutex stats_mu_;

  mutable std::mutex error_mu_;
  Status error_;       // first terminal error (what Stop() returns)
  Status last_error_;  // most recent error of any kind
};

// Periodic retention passes over every view of a ViewManager.
class RetentionService {
 public:
  RetentionService(ViewManager* views, RetentionOptions options,
                   std::chrono::milliseconds period)
      : manager_(views, options), period_(period) {}
  ~RetentionService() { Stop(); }

  void Start();
  void Stop();
  // One synchronous pass (also usable without Start).
  RetentionManager::PruneReport RunOnce() { return manager_.PruneOnce(); }

  // Shedding hook: while paused, the periodic thread skips pruning passes
  // (explicit RunOnce still works). Retention is the canonical
  // "non-critical work" a shedding MaintenanceService turns off -- wire
  // Options::on_shedding to these.
  void Pause() { paused_.store(true, std::memory_order_relaxed); }
  void Resume() { paused_.store(false, std::memory_order_relaxed); }
  bool paused() const { return paused_.load(std::memory_order_relaxed); }

  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }
  uint64_t skipped_passes() const {
    return skipped_.load(std::memory_order_relaxed);
  }

 private:
  RetentionManager manager_;
  std::chrono::milliseconds period_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  // The periodic thread sleeps on stop_cv_ until its next pass is due;
  // Stop() wakes it.
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> passes_{0};
  std::atomic<uint64_t> skipped_{0};
};

}  // namespace rollview

#endif  // ROLLVIEW_IVM_MAINTENANCE_H_
