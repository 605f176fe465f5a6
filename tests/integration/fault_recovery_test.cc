// Full-system fault recovery: updater threads, background capture, and a
// supervised MaintenanceService running against an armed FaultInjector --
// injected deadlock-victim aborts on the propagation transactions, injected
// lock-timeout Busy results, injected WAL write errors, and capture-lag
// spikes that stall the high-water mark. The drivers must absorb every
// transient, back off, and still converge: at quiescence the HWM reaches
// the update frontier, the MV matches the oracle, health is kRunning, and
// zero drivers died permanently. Deterministic fault sequence under the
// fixed injector seed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injector.h"
#include "harness/worker.h"
#include "ivm/maintenance.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

TEST(FaultRecoveryTest, MaintenanceSurvivesInjectedFaultStorm) {
  TestEnv env;

  // Well above the acceptance floor of 5% injected transient aborts on
  // propagation transactions, plus lock/WAL/capture faults.
  FaultInjector::Options fopts;
  fopts.seed = 0xfa017;
  fopts.commit_abort_probability = 0.10;
  fopts.lock_busy_probability = 0.05;
  fopts.wal_error_probability = 0.02;
  fopts.capture_lag_probability = 0.02;
  fopts.capture_lag_polls = 10;  // ~10 ms stall per spike at 1 ms polls
  FaultInjector fi(fopts);
  env.db()->SetFaultInjector(&fi);

  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 80, 40, 8, 301));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  MaintenanceService::Options mopts;
  mopts.runner.max_retries = 0;  // every transient reaches the supervisor
  // A capture-lag spike must surface quickly as a transient Busy rather
  // than stalling a propagation query for the default 10 s.
  mopts.runner.capture_wait_timeout = std::chrono::milliseconds(50);
  mopts.target_rows_per_query = 32;
  mopts.backoff.initial = std::chrono::microseconds(100);
  mopts.backoff.max = std::chrono::microseconds(5000);
  MaintenanceService service(env.views(), view, mopts);
  service.Start();

  // Updaters run clean (scoped injection) and keep committing throughout
  // the storm.
  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.RStream(1, 401), 401));
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.SStream(2, 402), 402));
  std::vector<std::unique_ptr<Worker>> updaters;
  for (auto& stream : streams) {
    UpdateStream* s = stream.get();
    Worker::Options opts;
    opts.name = "updater";
    opts.target_ops_per_sec = 150.0;
    updaters.push_back(std::make_unique<Worker>(
        [s] { return s->RunTransaction(); }, opts));
  }
  for (auto& w : updaters) w->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  for (auto& w : updaters) ASSERT_OK(w->Join());

  // Quiesce with the injector still armed: recovery, not luck, gets the
  // drivers to the frontier.
  Csn frontier = env.db()->stable_csn();
  ASSERT_OK(service.Drain(frontier));
  EXPECT_GE(view->high_water_mark(), frontier);
  EXPECT_GE(view->mv->csn(), frontier);

  // Disarm and settle so the health check cannot race a fresh injected
  // failure between Drain and the assertion.
  fi.set_armed(false);
  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  // A driver whose last injected fault landed just before the device healed
  // may still be sleeping out its backoff; health clears on its next (now
  // clean) step, so give it a bounded window rather than one instant check.
  for (int i = 0; i < 500 && service.Health() != DriverHealth::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.Health(), DriverHealth::kRunning);
  EXPECT_EQ(service.propagate_health(), DriverHealth::kRunning);
  EXPECT_EQ(service.apply_health(), DriverHealth::kRunning);
  ASSERT_OK(service.Stop());  // zero permanent driver deaths

  // The storm actually happened and the recovery counters saw it.
  FaultInjector::Stats fs = fi.GetStats();
  EXPECT_GT(fs.injected_aborts, 0u);
  DriverStats ps = service.propagate_driver_stats();
  DriverStats as = service.apply_driver_stats();
  EXPECT_GT(ps.steps, 0u);
  EXPECT_GT(ps.transient_errors + as.transient_errors, 0u);
  EXPECT_GT(ps.recoveries + as.recoveries, 0u);
  EXPECT_GT(ps.backoff_nanos + as.backoff_nanos, 0u);
  // Injected aborts on propagation commits relative to committed queries:
  // the >= 5% fault-rate floor from the acceptance criterion.
  const RunnerStats rs = service.runner_stats();
  EXPECT_GE(static_cast<double>(fs.injected_aborts),
            0.05 * static_cast<double>(rs.queries));

  // Correctness after the storm: MV == oracle at the MV's CSN.
  DeltaRows oracle = OracleViewState(env.db(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()))
      << "MV diverges from oracle after fault storm";
  env.db()->SetFaultInjector(nullptr);
}

TEST(FaultRecoveryTest, StorageFaultStormDegradesAndRecovers) {
  // Storage-fault classes (EIO, short write, ENOSPC) on the WAL append and
  // checkpoint write paths: maintenance must treat every one as transient,
  // walk through kDegraded, and still converge once the device "heals".
  TestEnv env;
  FaultInjector::Options fopts;
  fopts.seed = 0xe10;
  fopts.storage_eio_probability = 0.10;
  fopts.storage_short_write_probability = 0.05;
  fopts.storage_enospc_probability = 0.05;
  FaultInjector fi(fopts);
  env.db()->SetFaultInjector(&fi);

  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 60, 30, 8, 311));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  MaintenanceService::Options mopts;
  mopts.runner.max_retries = 0;       // every transient reaches the supervisor
  mopts.degraded_after = 1;           // one streaked failure shows as degraded
  mopts.target_rows_per_query = 16;
  mopts.checkpoint_every_steps = 2;   // exercise the checkpoint write path
  mopts.backoff.initial = std::chrono::microseconds(100);
  mopts.backoff.max = std::chrono::microseconds(5000);
  MaintenanceService service(env.views(), view, mopts);
  service.Start();

  UpdateStream updates(env.db(), workload.RStream(1, 411), 411);
  Worker::Options wopts;
  wopts.name = "updater";
  wopts.target_ops_per_sec = 200.0;
  Worker updater([&updates] { return updates.RunTransaction(); }, wopts);
  updater.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_OK(updater.Join());

  // Converge with the storm still blowing, then heal the device and settle.
  Csn frontier = env.db()->stable_csn();
  ASSERT_OK(service.Drain(frontier));
  fi.set_armed(false);
  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  // A driver whose last injected fault landed just before the device healed
  // may still be sleeping out its backoff; health clears on its next (now
  // clean) step, so give it a bounded window rather than one instant check.
  for (int i = 0; i < 500 && service.Health() != DriverHealth::kRunning; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.Health(), DriverHealth::kRunning);
  ASSERT_OK(service.Stop());  // no driver died permanently

  // The storm fired across the storage classes and supervision absorbed it.
  FaultInjector::Stats fs = fi.GetStats();
  EXPECT_GT(fs.injected_eio + fs.injected_short_writes + fs.injected_enospc,
            0u);
  DriverStats ps = service.propagate_driver_stats();
  DriverStats as = service.apply_driver_stats();
  EXPECT_GT(ps.transient_errors + as.transient_errors, 0u);
  EXPECT_GT(ps.recoveries + as.recoveries, 0u);
  EXPECT_GT(ps.degraded_entries + as.degraded_entries, 0u);

  DeltaRows oracle = OracleViewState(env.db(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()))
      << "MV diverges from oracle after storage-fault storm";
  env.db()->SetFaultInjector(nullptr);
}

TEST(FaultRecoveryTest, FaultSequenceIsDeterministicUnderFixedSeed) {
  // Two injectors with the same seed fed the same draw sequence produce
  // identical fault schedules -- the property that makes storm runs
  // reproducible (the draw *sites* are scheduling-dependent, the per-site
  // sequence is not).
  FaultInjector::Options fopts;
  fopts.seed = 99;
  fopts.commit_abort_probability = 0.2;
  fopts.capture_lag_probability = 0.1;
  fopts.capture_lag_polls = 4;
  FaultInjector a(fopts), b(fopts);
  FaultInjector::Scope scope;
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.MaybeCommitAbort().ok(), b.MaybeCommitAbort().ok());
    EXPECT_EQ(a.MaybeCaptureLag(), b.MaybeCaptureLag());
  }
  FaultInjector::Stats sa = a.GetStats(), sb = b.GetStats();
  EXPECT_EQ(sa.injected_aborts, sb.injected_aborts);
  EXPECT_EQ(sa.lag_spikes, sb.lag_spikes);
  EXPECT_EQ(sa.lag_polls, sb.lag_polls);
}

}  // namespace
}  // namespace rollview
