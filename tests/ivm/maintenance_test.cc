// MaintenanceService / RetentionService: background drivers, pause/resume,
// drain semantics, error propagation.

#include "ivm/maintenance.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/fault_injector.h"
#include "obs/freshness.h"
#include "obs/registry.h"
#include "storage/wal_segment.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

// A FreshnessTracker on a hand-moved clock, attached to `db` for its own
// lifetime, so shedding on the freshness SLO is driven without sleeping.
// The clock starts at 1 s: a zero commit stamp reads as "never stamped".
class FakeClockFreshness {
 public:
  explicit FakeClockFreshness(Db* db) : db_(db), tracker_(ClockOn(&now_)) {
    db_->SetFreshnessTracker(&tracker_);
  }
  ~FakeClockFreshness() { db_->SetFreshnessTracker(nullptr); }

  obs::FreshnessTracker* tracker() { return &tracker_; }
  void Advance(std::chrono::nanoseconds d) {
    now_.fetch_add(static_cast<uint64_t>(d.count()));
  }

 private:
  static obs::FreshnessOptions ClockOn(std::atomic<uint64_t>* now) {
    obs::FreshnessOptions opts;
    opts.clock = [now] { return now->load(); };
    return opts;
  }

  Db* db_;
  std::atomic<uint64_t> now_{1'000'000'000};
  obs::FreshnessTracker tracker_;
};

// A 1 ms staleness target that acts on a single sample: one stale
// observation sheds, and once the clock moves a full window past the
// breach, one fresh observation recovers.
obs::FreshnessSloOptions TightSlo() {
  obs::FreshnessSloOptions slo;
  slo.target_staleness_nanos = 1'000'000;
  slo.window_nanos = 1'000'000'000;
  slo.min_samples = 1;
  return slo;
}

// The reason label of the rollview_shedding_reason series that reads 1,
// or "" unless exactly one does.
std::string SheddingReasonGauge(const obs::MetricsRegistry& registry) {
  obs::MetricsSnapshot snap = registry.Snapshot();
  std::string reason;
  int ones = 0;
  for (const char* r : {"none", "wal_full", "staleness"}) {
    if (snap.GaugeValue("rollview_shedding_reason",
                        {{"view", "V"}, {"reason", r}}) == 1) {
      reason = r;
      ++ones;
    }
  }
  return ones == 1 ? reason : "";
}

class MaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), 40, 25, 6, 12));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    env_.StartCapture();
  }

  void RunUpdates(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(seed, seed), seed);
    for (size_t i = 0; i < txns; ++i) ASSERT_OK(r_stream.RunTransaction());
  }

  ::testing::AssertionResult MvMatchesOracle() {
    DeltaRows oracle = OracleViewState(env_.db(), view_, view_->mv->csn());
    if (!NetEquivalent(oracle, view_->mv->AsDeltaRows())) {
      return ::testing::AssertionFailure() << "MV diverges from oracle";
    }
    return ::testing::AssertionSuccess();
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
};

TEST_F(MaintenanceTest, DrainWithoutStartWorksSynchronously) {
  RunUpdates(10, 1);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  MaintenanceService service(env_.views(), view_);
  // Propagation queries commit too, advancing the stable CSN past the
  // drain target; compare against the target we asked for.
  Csn target = env_.db()->stable_csn();
  ASSERT_OK(service.Drain(target));
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, BackgroundDriversChaseUpdates) {
  MaintenanceService service(env_.views(), view_);
  service.Start();
  RunUpdates(30, 2);
  Csn target = env_.db()->stable_csn();
  ASSERT_OK(service.Drain(target));
  ASSERT_OK(service.Stop());
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_TRUE(MvMatchesOracle());
  EXPECT_GT(service.runner_stats().queries, 0u);
  EXPECT_GT(service.apply_stats().rolls, 0u);
}

// Regression: an idle pipeline goes quiet. When every apply roll committed
// a transaction, the commit's CSN was new delta-ready input: the propagator
// skip-stepped over it, advanced the hwm, and triggered the next roll -- a
// commit (an fsync, with a file-backed WAL) every couple of milliseconds,
// forever. Rolls over empty windows are now metadata-only.
TEST_F(MaintenanceTest, IdlePipelineGoesQuiet) {
  obs::MetricsRegistry registry;
  MaintenanceService service(env_.views(), view_);
  service.RegisterMetrics(&registry);
  service.Start();
  RunUpdates(25, 21);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));

  // The burst's tail (its own propagation and apply commits) settles within
  // a few hand-offs; wait until the stable CSN holds still for 100 ms.
  Db* db = env_.db();
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Csn last = db->stable_csn();
  auto last_change = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - last_change <
             std::chrono::milliseconds(100) &&
         std::chrono::steady_clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (db->stable_csn() != last) {
      last = db->stable_csn();
      last_change = std::chrono::steady_clock::now();
    }
  }

  const obs::Labels lv{{"view", "V"}};
  const Csn csn0 = db->stable_csn();
  const Lsn lsn0 = db->wal()->next_lsn();
  const uint64_t rolls0 =
      registry.Snapshot().CounterValue("rollview_apply_rolls_total", lv);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  obs::MetricsSnapshot idle = registry.Snapshot();
  EXPECT_EQ(db->stable_csn(), csn0) << "idle pipeline keeps committing";
  EXPECT_EQ(db->wal()->next_lsn(), lsn0) << "idle pipeline keeps logging";
  EXPECT_EQ(idle.CounterValue("rollview_apply_rolls_total", lv), rolls0)
      << "idle pipeline keeps rolling";
  EXPECT_EQ(idle.GaugeValue("rollview_view_staleness_csn", lv), 0);
  EXPECT_EQ(view_->mv->csn(), csn0);
  // A default service runs the partitioned coordinator with one strip, so
  // the partition gauges exist and the one slot is the view's mark.
  EXPECT_EQ(idle.GaugeValue("rollview_view_partitions", lv), 1);
  EXPECT_EQ(idle.GaugeValue("rollview_view_partition_hwm_csn",
                            {{"view", "V"}, {"partition", "0"}}),
            idle.GaugeValue("rollview_view_hwm_csn", lv));

  ASSERT_OK(service.Stop());
  EXPECT_GT(service.apply_stats().empty_rolls, 0u);
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, PausedApplyHoldsTheMvStill) {
  MaintenanceService service(env_.views(), view_);
  service.PauseApply();
  service.Start();
  Csn mv_before = view_->mv->csn();
  RunUpdates(15, 4);
  // Propagation proceeds...
  Csn target = env_.db()->stable_csn();
  while (view_->high_water_mark() < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...but the MV does not move while apply is paused.
  EXPECT_EQ(view_->mv->csn(), mv_before);
  service.ResumeApply();
  ASSERT_OK(service.Drain(target));
  ASSERT_OK(service.Stop());
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, PausedPropagationFreezesHwm) {
  MaintenanceService service(env_.views(), view_);
  service.Start();
  RunUpdates(10, 5);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  service.PausePropagation();
  Csn hwm_before = view_->high_water_mark();
  RunUpdates(10, 6);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(view_->high_water_mark(), hwm_before);
  service.ResumePropagation();
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
}

// A pause returns only once the driver is between steps. Hold a step on a
// base-table lock, pause from another thread, then release the lock: the
// pause must wait for the step, and the hwm it leaves must stay put.
TEST_F(MaintenanceTest, PauseWaitsForTheStepInFlight) {
  MaintenanceService service(env_.views(), view_);
  service.Start();
  RunUpdates(4, 21);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));

  // Propagating R's updates S-locks table S; this transaction's X lock
  // blocks the next step there.
  auto blocker = env_.db()->Begin();
  ASSERT_OK(env_.db()->LockTableExclusive(blocker.get(), workload_.s));
  LockManager* locks = env_.db()->lock_manager();
  auto maintenance_waits = [locks] {
    return locks->GetStats().cls(TxnClass::kMaintenance).waits;
  };
  const uint64_t waits_before = maintenance_waits();
  RunUpdates(4, 22);
  while (maintenance_waits() == waits_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<bool> pause_returned{false};
  Csn hwm_at_pause = kNullCsn;
  std::thread pauser([&] {
    service.PausePropagation();
    hwm_at_pause = view_->high_water_mark();
    pause_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(pause_returned.load())
      << "PausePropagation returned while a step was in flight";
  ASSERT_OK(env_.db()->Abort(blocker.get()));
  pauser.join();

  RunUpdates(4, 23);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(view_->high_water_mark(), hwm_at_pause);
  service.ResumePropagation();
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, DrainReturnsBusyWhenPropagationIsPaused) {
  MaintenanceService service(env_.views(), view_);
  service.PausePropagation();
  service.Start();
  RunUpdates(5, 8);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  Csn target = env_.db()->stable_csn();
  // The driver that must advance the HWM is paused: Drain must report Busy
  // instead of livelocking.
  Status s = service.Drain(target);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  service.ResumePropagation();
  ASSERT_OK(service.Drain(target));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, DrainReturnsBusyWhenApplyIsPaused) {
  MaintenanceService service(env_.views(), view_);
  service.PauseApply();
  service.Start();
  RunUpdates(5, 9);
  Csn target = env_.db()->stable_csn();
  while (view_->high_water_mark() < target) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = service.Drain(target);
  EXPECT_TRUE(s.IsBusy()) << s.ToString();
  service.ResumeApply();
  ASSERT_OK(service.Drain(target));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, SupervisorAbsorbsTransientAbortBurst) {
  FaultInjector::Options fopts;
  fopts.seed = 7;
  // High enough that a burst of aborts is certain across the dozens of
  // maintenance commits below, low enough that multi-commit rolling steps
  // still complete promptly (success rate per commit is 1 - p).
  fopts.commit_abort_probability = 0.3;
  FaultInjector fi(fopts);
  env_.db()->SetFaultInjector(&fi);

  MaintenanceService::Options opts;
  opts.runner.max_retries = 0;  // the supervisor owns the whole retry policy
  opts.target_rows_per_query = 8;  // many small strips -> many fault draws
  opts.backoff.initial = std::chrono::microseconds(20);
  opts.backoff.max = std::chrono::microseconds(1000);
  MaintenanceService service(env_.views(), view_, opts);
  service.Start();
  RunUpdates(30, 8);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));

  // Let the burst end and verify the service recovered fully.
  fi.set_armed(false);
  RunUpdates(5, 9);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  EXPECT_EQ(service.Health(), DriverHealth::kRunning);
  EXPECT_EQ(service.propagate_health(), DriverHealth::kRunning);
  ASSERT_OK(service.Stop());  // no terminal error despite the burst

  DriverStats ps = service.propagate_driver_stats();
  EXPECT_GT(ps.steps, 0u);
  EXPECT_GT(ps.transient_errors, 0u);
  EXPECT_GT(ps.errors_aborted, 0u);
  EXPECT_GT(ps.recoveries, 0u);
  EXPECT_GT(ps.backoff_nanos, 0u);
  EXPECT_GT(fi.GetStats().injected_aborts, 0u);
  EXPECT_TRUE(service.last_error().IsTxnAborted());  // observable history
  EXPECT_TRUE(MvMatchesOracle());
  env_.db()->SetFaultInjector(nullptr);
}

TEST_F(MaintenanceTest, PermanentFailureSurfacesAndRestartClearsIt) {
  FaultInjector::Options fopts;
  fopts.commit_abort_probability = 1.0;
  FaultInjector fi(fopts);
  env_.db()->SetFaultInjector(&fi);

  MaintenanceService::Options opts;
  opts.runner.max_retries = 0;
  opts.degraded_after = 2;
  opts.failed_after = 4;
  opts.backoff.initial = std::chrono::microseconds(20);
  opts.backoff.max = std::chrono::microseconds(500);
  MaintenanceService service(env_.views(), view_, opts);
  RunUpdates(5, 10);
  service.Start();
  while (service.propagate_health() != DriverHealth::kFailed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.Health(), DriverHealth::kFailed);
  EXPECT_TRUE(service.last_error().IsTxnAborted());
  // Drain against a failed driver reports the driver's error, not a hang.
  Status drain = service.Drain(env_.db()->stable_csn());
  EXPECT_TRUE(drain.IsTxnAborted()) << drain.ToString();
  Status stop = service.Stop();
  EXPECT_TRUE(stop.IsTxnAborted()) << stop.ToString();
  DriverStats ps = service.propagate_driver_stats();
  EXPECT_GE(ps.transient_errors, 3u);  // the failures before giving up
  EXPECT_GE(ps.degraded_entries, 1u);  // walked through kDegraded

  // Restart after the fault cleared: no stale error from the previous run.
  fi.set_armed(false);
  service.Start();
  EXPECT_OK(service.last_error());
  EXPECT_EQ(service.propagate_health(), DriverHealth::kRunning);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
  env_.db()->SetFaultInjector(nullptr);
}

TEST_F(MaintenanceTest, RestartAfterPermanentFailureResumesFromCursors) {
  // Progress a first service to a frontier and destroy it; then fail a
  // second service permanently under a 100% injected-abort storm. Every
  // (re)start in this sequence must pick up from the view's durable cursor
  // state -- never from CSN 0. A restart that re-propagated the old strips
  // would duplicate their view-delta rows and break the oracle check.
  RunUpdates(8, 21);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  {
    MaintenanceService warm(env_.views(), view_);
    ASSERT_OK(warm.Drain(env_.db()->stable_csn()));
  }  // destroyed: the propagator is gone, only the cursor state survives
  Csn h1 = view_->high_water_mark();
  CursorState resume = view_->LoadCursors();
  ASSERT_TRUE(resume.valid);
  uint64_t seq1 = resume.next_step_seq;
  ASSERT_GT(seq1, 1u);

  FaultInjector::Options fopts;
  fopts.seed = 0x5eed;
  fopts.commit_abort_probability = 1.0;  // nothing can commit
  FaultInjector fi(fopts);
  env_.db()->SetFaultInjector(&fi);

  MaintenanceService::Options opts;
  opts.runner.max_retries = 0;
  opts.failed_after = 3;
  opts.backoff.initial = std::chrono::microseconds(20);
  opts.backoff.max = std::chrono::microseconds(200);
  MaintenanceService service(env_.views(), view_, opts);
  // Fresh construction resumed from the cursors: the hwm did not reset.
  EXPECT_EQ(view_->high_water_mark(), h1);

  RunUpdates(6, 22);
  service.Start();
  while (service.propagate_health() != DriverHealth::kFailed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status stop = service.Stop();
  EXPECT_FALSE(stop.ok());
  EXPECT_GE(view_->high_water_mark(), h1);  // failure never regressed it

  // Fault cleared: the same service restarts and finishes the job from
  // wherever the failed run got to.
  fi.set_armed(false);
  service.Start();
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
  EXPECT_GT(view_->high_water_mark(), h1);
  CursorState after = view_->LoadCursors();
  EXPECT_GE(after.next_step_seq, seq1);  // step sequence continued
  env_.db()->SetFaultInjector(nullptr);
}

TEST_F(MaintenanceTest, RestartAfterFailureResetsControllerState) {
  // An abort storm drives the AIMD row target to its floor before the
  // driver gives up (kFailed). Restarting the service resets backoff -- and
  // must reset the controller too: resuming with the collapsed target (or a
  // stale shedding posture) would start the new run throttled by a regime
  // that no longer exists.
  FaultInjector::Options fopts;
  fopts.seed = 0xabcd;
  fopts.commit_abort_probability = 1.0;
  FaultInjector fi(fopts);
  env_.db()->SetFaultInjector(&fi);

  MaintenanceService::Options opts;
  opts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  opts.controller.initial_target_rows = 64;
  opts.controller.min_target_rows = 2;
  opts.runner.max_retries = 0;
  opts.failed_after = 8;
  opts.backoff.initial = std::chrono::microseconds(20);
  opts.backoff.max = std::chrono::microseconds(200);
  MaintenanceService service(env_.views(), view_, opts);
  RunUpdates(5, 30);
  service.Start();
  while (service.propagate_health() != DriverHealth::kFailed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  // Each transient failure shrank the target multiplicatively; by kFailed
  // it has collapsed below the configured initial.
  const size_t collapsed = service.interval_controller()->target_rows();
  EXPECT_LT(collapsed, opts.controller.initial_target_rows);
  Status stop = service.Stop();
  EXPECT_FALSE(stop.ok());

  fi.set_armed(false);
  service.Start();
  // Health transitioned kFailed -> kRunning: the controller restarted from
  // its configured initial target, not the collapsed one.
  EXPECT_EQ(service.interval_controller()->target_rows(),
            opts.controller.initial_target_rows);
  EXPECT_EQ(service.propagate_health(), DriverHealth::kRunning);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
  // Cumulative controller history survived the reset.
  EXPECT_GT(service.interval_controller()->GetStats().transient_shrinks, 0u);
  env_.db()->SetFaultInjector(nullptr);
}

TEST_F(MaintenanceTest, AdaptiveIntervalModeConverges) {
  obs::MetricsRegistry registry;
  MaintenanceService::Options opts;
  opts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  opts.controller.initial_target_rows = 8;
  MaintenanceService service(env_.views(), view_, opts);
  service.RegisterMetrics(&registry);
  ASSERT_NE(service.interval_controller(), nullptr);
  EXPECT_FALSE(service.shedding());  // no SLO configured
  service.Start();
  RunUpdates(30, 13);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
  IntervalController::Stats cs = service.interval_controller()->GetStats();
  EXPECT_GT(cs.observations, 0u);
  EXPECT_GE(service.interval_controller()->target_rows(),
            opts.controller.min_target_rows);
  EXPECT_GT(registry.Snapshot().GaugeValue("rollview_view_target_rows",
                                           {{"view", "V"}}),
            0);
}

TEST_F(MaintenanceTest, AdaptiveSheddingPausesRetentionAndRecovers) {
  // Deterministic end-to-end shedding on the freshness SLO: the pending
  // commits age past the staleness target on a hand-moved clock before a
  // synchronous Drain propagates them, so every strip observes the breach
  // (shed); once they are visible, moving the clock a window past the
  // breach and trickling fresh work through recovers. A manufactured OLTP
  // lock wait makes the same drain exercise AIMD. Synchronous Drain keeps
  // it single-threaded.
  FakeClockFreshness fresh(env_.db());
  obs::MetricsRegistry registry;
  MaintenanceService::Options opts;
  opts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  opts.controller.initial_target_rows = 4;
  opts.controller.min_target_rows = 2;
  opts.freshness = fresh.tracker();
  opts.freshness_slo = TightSlo();
  RetentionService retention(env_.views(), RetentionOptions{},
                             std::chrono::milliseconds(100000));
  std::vector<bool> transitions;
  opts.on_shedding = [&](bool on) {
    if (on) {
      retention.Pause();
    } else {
      retention.Resume();
    }
    transitions.push_back(on);
  };
  MaintenanceService service(env_.views(), view_, opts);
  service.RegisterMetrics(&registry);
  EXPECT_EQ(SheddingReasonGauge(registry), "none");

  RunUpdates(30, 11);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  fresh.Advance(std::chrono::seconds(1));  // every pending commit is 1 s old

  // One real OLTP lock wait inside the controller's observation window.
  LockManager* lm = env_.db()->lock_manager();
  ResourceId contended = ResourceId::Named(777);
  ASSERT_OK(lm->Acquire(990001, contended, LockMode::kX));
  std::thread waiter([&] {
    EXPECT_TRUE(lm->Acquire(990002, contended, LockMode::kX).ok());
    lm->ReleaseAll(990002);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lm->ReleaseAll(990001);
  waiter.join();

  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  // The strips saw only stale samples: shedding, retention paused.
  ASSERT_EQ(transitions, std::vector<bool>{true});
  EXPECT_EQ(service.shedding_reason(), SheddingReason::kStaleness);
  EXPECT_EQ(SheddingReasonGauge(registry), "staleness");
  EXPECT_TRUE(retention.paused());

  // The backlog is visible. Move the breach out of the SLO window and
  // trickle fresh work through: the next samples are fresh and recover.
  for (int i = 0; i < 5 && service.shedding(); ++i) {
    fresh.Advance(std::chrono::seconds(2));
    RunUpdates(2, 100 + i);
    ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  }

  ASSERT_GE(transitions.size(), 2u);
  EXPECT_TRUE(transitions.front());   // entered shedding...
  EXPECT_FALSE(transitions.back());   // ...and recovered
  EXPECT_FALSE(service.shedding());
  EXPECT_EQ(SheddingReasonGauge(registry), "none");
  EXPECT_FALSE(retention.paused());
  obs::FreshnessSlo::Stats slo = service.freshness_slo()->stats();
  EXPECT_GE(slo.violations, 1u);
  EXPECT_EQ(slo.shed_entries, slo.shed_exits);
  IntervalController::Stats cs = service.interval_controller()->GetStats();
  EXPECT_GE(cs.shrinks, 1u);  // the contended window also shrank the target
  // The gauges tracked the observations (values are workload-dependent).
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GE(snap.GaugeValue("rollview_view_target_rows", {{"view", "V"}}),
            static_cast<int64_t>(opts.controller.min_target_rows));
  EXPECT_GE(snap.GaugeValue("rollview_view_staleness_csn", {{"view", "V"}}),
            0);
  EXPECT_TRUE(MvMatchesOracle());
}

TEST_F(MaintenanceTest, DrainCompletesWhileShedding) {
  // Regression: shedding turns off non-critical work (retention, stretched
  // checkpoints) but must never gate Drain -- CheckDrainProgress only fails
  // on kFailed or paused propagation, and a shedding service keeps rolling
  // strips. The pending commits are stale before the drain starts and the
  // clock never moves again, so the very first strip sheds and recovery is
  // unreachable; the whole backlog drains while the posture stays
  // "shedding".
  FakeClockFreshness fresh(env_.db());
  MaintenanceService::Options opts;
  opts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  // Two-row strips: the drain takes many steps at the stretched cadence.
  opts.controller.initial_target_rows = 2;
  opts.controller.min_target_rows = 2;
  opts.controller.max_target_rows = 2;
  opts.freshness = fresh.tracker();
  opts.freshness_slo = TightSlo();
  opts.checkpoint_every_steps = 2;
  std::vector<bool> transitions;
  opts.on_shedding = [&](bool on) { transitions.push_back(on); };
  MaintenanceService service(env_.views(), view_, opts);

  RunUpdates(30, 17);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  fresh.Advance(std::chrono::seconds(1));

  Csn target = env_.db()->stable_csn();
  ASSERT_OK(service.Drain(target));  // must complete despite shedding

  EXPECT_GE(view_->high_water_mark(), target);
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_EQ(transitions, std::vector<bool>{true});
  EXPECT_TRUE(service.shedding());  // never recovered -- and never needed to
  EXPECT_EQ(service.shedding_reason(), SheddingReason::kStaleness);
  // Stretched checkpoint cadence, still progressing: at most one
  // checkpoint per stretched period (plus the one the first, unshed step
  // may have counted toward), at least one in all.
  const uint64_t stretched = opts.checkpoint_every_steps *
                             MaintenanceService::kSheddingCheckpointStretch;
  EXPECT_EQ(service.checkpointer()->every_steps(), stretched);
  const uint64_t written = service.checkpointer()->checkpoints_written();
  EXPECT_GE(written, 1u);
  EXPECT_LE(written, service.propagate_driver_stats().steps / stretched + 1);
  obs::FreshnessSlo::Stats slo = service.freshness_slo()->stats();
  EXPECT_GE(slo.shed_entries, 1u);
  EXPECT_EQ(slo.shed_exits, 0u);
  EXPECT_TRUE(MvMatchesOracle());
}

// Regression: shedding is one state over two inputs, and on_shedding fires
// on its transitions only. WAL-full (an ENOSPC storm on a durable WAL)
// overlaps a freshness-SLO breach; clearing them one at a time must
// deliver exactly [true, false], while the reason gauge steps wal_full ->
// staleness -> none (WAL-full wins while both hold).
TEST(MaintenanceSheddingTest, OverlappingInputsFireOneTransitionEachWay) {
  const std::string dir = ::testing::TempDir() + "maintenance_shed_overlap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Db db;
  DurableWalOptions wopts;
  wopts.dir = dir;
  wopts.segment_bytes = 8192;
  wopts.enospc_retry = std::chrono::milliseconds(1);
  ASSERT_OK(db.wal()->OpenDurable(wopts, 1, true));
  WalSegmentStore* store = db.wal()->store();
  store->Start();
  CaptureOptions copts;
  copts.truncate_wal = false;
  LogCapture capture(&db, copts);
  ViewManager views(&db, &capture);
  FakeClockFreshness fresh(&db);
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(&db, 40, 30, 8, 0x5eed));
  capture.CatchUp();
  ASSERT_OK_AND_ASSIGN(View* view, views.CreateView("V", workload.ViewDef()));
  ASSERT_OK(views.Materialize(view));
  capture.Start();

  auto wait_for = [](const std::function<bool()>& pred) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  };

  obs::MetricsRegistry registry;
  MaintenanceService::Options mopts;
  mopts.freshness = fresh.tracker();
  mopts.freshness_slo = TightSlo();
  std::vector<bool> transitions;  // written by the propagate driver only
  std::atomic<size_t> transition_count{0};
  mopts.on_shedding = [&](bool on) {
    transitions.push_back(on);
    transition_count.fetch_add(1);
  };
  MaintenanceService service(&views, view, mopts);
  service.RegisterMetrics(&registry);
  // Apply stays paused until the end, so nothing becomes visible and the
  // staleness input holds once it trips.
  service.PauseApply();

  UpdateStream updates(&db, workload.RStream(1, 0x61), 0x61);
  ASSERT_OK(updates.RunTransactions(4));

  // Fill the device. A committer caught mid-sync parks until space
  // returns, so that one runs on its own thread; the guard disarms the
  // injector before joining, so a failed assertion cannot deadlock.
  FaultInjector::Options fopts;
  fopts.seed = 0x5703;
  fopts.storage_enospc_probability = 1.0;
  fopts.scoped_only = false;  // the flusher thread never enters a Scope
  FaultInjector fi(fopts);
  store->SetFaultInjector(&fi);
  std::thread parked([&] {
    UpdateStream one(&db, workload.RStream(2, 0x62), 0x62);
    Status s = one.RunTransaction(/*max_retries=*/0);
    EXPECT_TRUE(s.ok() || s.IsTransient()) << s.ToString();
  });
  struct Guard {
    FaultInjector& fi;
    std::thread& t;
    ~Guard() {
      fi.set_armed(false);
      if (t.joinable()) t.join();
    }
  } guard{fi, parked};
  ASSERT_TRUE(wait_for([&] { return store->out_of_space(); }));

  // Input 1, pressure: the first strip bounces off the full device.
  service.Start();
  ASSERT_TRUE(wait_for([&] { return service.shedding(); }));
  EXPECT_EQ(service.shedding_reason(), SheddingReason::kWalFull);
  EXPECT_EQ(SheddingReasonGauge(registry), "wal_full");

  // Input 2, staleness: the pending commits age past the target. The SLO
  // latches, but WAL-full keeps precedence and the hook stays quiet.
  fresh.Advance(std::chrono::seconds(10));
  ASSERT_TRUE(wait_for([&] { return service.freshness_slo()->shedding(); }));
  EXPECT_EQ(service.shedding_reason(), SheddingReason::kWalFull);
  EXPECT_EQ(SheddingReasonGauge(registry), "wal_full");

  // Space returns: the pressure input clears, staleness still holds.
  fi.set_armed(false);
  ASSERT_TRUE(wait_for([&] { return !store->out_of_space(); }));
  parked.join();
  ASSERT_TRUE(wait_for(
      [&] { return service.shedding_reason() == SheddingReason::kStaleness; }));
  EXPECT_EQ(SheddingReasonGauge(registry), "staleness");
  EXPECT_EQ(transition_count.load(), 1u);

  // The view catches up and the breach leaves the SLO window: recovered.
  service.ResumeApply();
  ASSERT_OK(service.Drain(db.stable_csn()));
  fresh.Advance(std::chrono::seconds(10));
  ASSERT_TRUE(wait_for([&] { return !service.shedding(); }));
  EXPECT_EQ(SheddingReasonGauge(registry), "none");
  ASSERT_OK(service.Stop());
  capture.Stop();
  store->SetFaultInjector(nullptr);
  EXPECT_EQ(transitions, (std::vector<bool>{true, false}));
}

// Standalone (short lock-wait timeout needs its own Db): a propagation step
// that times out waiting on an OLTP table lock surfaces as transient Busy,
// is counted, and is retried by the supervisor -- never kFailed, and the
// cancelled step leaves no partial rows behind (MV still matches oracle).
TEST(MaintenanceOverloadTest, LockWaitTimeoutIsRetriedNotFatal) {
  DbOptions dopts;
  dopts.lock_options.wait_timeout = std::chrono::milliseconds(40);
  Db db(dopts);
  LogCapture capture(&db, CaptureOptions{});
  ViewManager views(&db, &capture);
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(&db, 40, 25, 6, 33));
  capture.CatchUp();
  ASSERT_OK_AND_ASSIGN(View* view, views.CreateView("V", workload.ViewDef()));
  ASSERT_OK(views.Materialize(view));
  capture.Start();

  {
    UpdateStream stream(&db, workload.RStream(33, 34), 34);
    for (int i = 0; i < 12; ++i) ASSERT_OK(stream.RunTransaction());
  }
  ASSERT_OK(capture.WaitForCsn(db.stable_csn()));

  // An OLTP transaction parks X locks on both base tables, so whichever
  // relation the next strip's forward query reads, it blocks and times out.
  std::unique_ptr<Txn> blocker = db.Begin();
  ASSERT_OK(db.LockTableExclusive(blocker.get(), workload.r));
  ASSERT_OK(db.LockTableExclusive(blocker.get(), workload.s));

  MaintenanceService::Options mopts;
  mopts.runner.max_retries = 0;  // every timeout reaches the supervisor
  mopts.backoff.initial = std::chrono::microseconds(50);
  mopts.backoff.max = std::chrono::microseconds(2000);
  MaintenanceService service(&views, view, mopts);
  service.Start();

  while (service.propagate_driver_stats().errors_busy < 2) {
    ASSERT_NE(service.propagate_health(), DriverHealth::kFailed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(service.last_error().IsBusy()) <<
      service.last_error().ToString();

  ASSERT_OK(db.Abort(blocker.get()));  // release; the retry goes through
  ASSERT_OK(service.Drain(db.stable_csn()));
  EXPECT_EQ(service.propagate_health(), DriverHealth::kRunning);
  ASSERT_OK(service.Stop());  // no terminal error from the timeout burst

  DriverStats ps = service.propagate_driver_stats();
  EXPECT_GE(ps.errors_busy, 2u);
  EXPECT_GE(ps.recoveries, 1u);
  EXPECT_GE(db.lock_manager()->GetStats().cls(TxnClass::kMaintenance).timeouts,
            2u);
  DeltaRows oracle = OracleViewState(&db, view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()))
      << "cancelled timed-out steps left partial rows behind";
}

TEST_F(MaintenanceTest, RetentionServicePrunesInBackground) {
  MaintenanceService service(env_.views(), view_);
  RetentionService retention(env_.views(), RetentionOptions{},
                             std::chrono::milliseconds(5));
  service.Start();
  retention.Start();
  RunUpdates(25, 7);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  // Give retention a few periods after the drain.
  uint64_t passes = retention.passes();
  while (retention.passes() < passes + 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  retention.Stop();
  ASSERT_OK(service.Stop());
  EXPECT_TRUE(MvMatchesOracle());
  // Everything at or below the MV time is gone.
  EXPECT_EQ(env_.db()->delta(workload_.r)->CountInRange(
                CsnRange{0, view_->mv->csn()}),
            0u);
  EXPECT_GT(retention.passes(), 0u);
}

TEST_F(MaintenanceTest, RetentionServiceStopWakesTheWaitingThread) {
  // The periodic thread sleeps on a condition variable until its next pass
  // is due, so Stop() returns at once instead of waiting out the period.
  RetentionService retention(env_.views(), RetentionOptions{},
                             std::chrono::seconds(10));
  retention.Start();
  while (retention.passes() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto start = std::chrono::steady_clock::now();
  retention.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));
  EXPECT_EQ(retention.passes(), 1u);
}

}  // namespace
}  // namespace rollview
