// Tests of PartitionedRollingPropagator: partitioned strips preserve the
// timed-delta invariant (Definition 4.2 per slice), the view-level
// high-water mark is the minimum over the strips, non-partitionable views
// are rejected (and MaintenanceService runs them as one strip), and
// repartitioning -- to or from one partition -- is legal exactly from a
// settled uniform frontier.

#include "ivm/parallel_rolling.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ivm/maintenance.h"
#include "ivm/partition.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

class ParallelRollingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        workload_, TwoTableWorkload::Create(env_.db(), /*r_rows=*/60,
                                            /*s_rows=*/40, /*join_domain=*/8,
                                            /*seed=*/17));
    env_.CatchUpCapture();
    ASSERT_OK_AND_ASSIGN(view_,
                         env_.views()->CreateView("V", workload_.ViewDef()));
    ASSERT_OK(env_.views()->Materialize(view_));
    t0_ = view_->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed) {
    UpdateStream r_stream(env_.db(), workload_.RStream(1, seed), seed);
    UpdateStream s_stream(env_.db(), workload_.SStream(2, seed + 1),
                          seed + 1);
    for (size_t i = 0; i < txns; ++i) {
      ASSERT_OK(r_stream.RunTransaction());
      if (i % 3 == 0) ASSERT_OK(s_stream.RunTransaction());
    }
    env_.CatchUpCapture();
  }

  PartitionedRollingPropagator::PolicyFactory UniformPolicies(Csn interval) {
    size_t n = view_->resolved.num_terms();
    return [n, interval]() {
      std::vector<std::unique_ptr<IntervalPolicy>> policies;
      for (size_t i = 0; i < n; ++i) {
        policies.push_back(std::make_unique<FixedInterval>(interval));
      }
      return policies;
    };
  }

  Result<std::unique_ptr<PartitionedRollingPropagator>> Make(
      uint32_t partitions, Csn interval = 5) {
    ParallelRollingOptions options;
    options.partitions = partitions;
    return PartitionedRollingPropagator::Create(
        env_.views(), view_, UniformPolicies(interval), std::move(options));
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(ParallelRollingTest, PartitionedPropagationSatisfiesInvariant) {
  RunUpdates(20, 41);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK_AND_ASSIGN(auto prop, Make(4));
  EXPECT_EQ(prop->partitions(), 4u);
  ASSERT_OK(prop->RunUntil(target));
  EXPECT_GE(prop->high_water_mark(), target);
  EXPECT_GE(view_->high_water_mark(), target);
  // The strips' outputs must tile the serial result: the view delta as a
  // whole satisfies Definition 4.2 over every sampled sub-window.
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/4));
}

TEST_F(ParallelRollingTest, HwmIsMinOverPartitions) {
  RunUpdates(12, 42);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK_AND_ASSIGN(auto prop, Make(3, /*interval=*/4));
  Csn last = prop->high_water_mark();
  while (prop->high_water_mark() < target) {
    ASSERT_OK_AND_ASSIGN(bool any, prop->Step());
    if (!any) {
      ASSERT_OK_AND_ASSIGN(bool settled, prop->TryFinish());
      if (settled) break;
    }
    Csn hwm = prop->high_water_mark();
    EXPECT_GE(hwm, last) << "view-level mark went backwards";
    // The coordinator's mark is the min over the strips' local marks, and
    // the view never advertises more than that minimum.
    Csn min_strip = kMaxCsn;
    for (uint32_t p = 0; p < prop->partitions(); ++p) {
      min_strip = std::min(min_strip, prop->strip(p)->high_water_mark());
    }
    EXPECT_EQ(hwm, min_strip);
    EXPECT_LE(view_->high_water_mark(), min_strip);
    // Theorem 4.3 holds mid-flight at the partition-min mark.
    ASSERT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, hwm));
    last = hwm;
  }
  EXPECT_GE(prop->high_water_mark(), target);
}

TEST_F(ParallelRollingTest, InterleavedUpdatesAndParallelRounds) {
  ASSERT_OK_AND_ASSIGN(auto prop, Make(4, /*interval=*/6));
  Csn target = t0_;
  for (int round = 0; round < 5; ++round) {
    RunUpdates(4, 500 + round);
    target = env_.capture()->high_water_mark();
    ASSERT_OK(prop->RunUntil(target));
  }
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/6));
}

TEST_F(ParallelRollingTest, AggregateStatsSumOverStrips) {
  RunUpdates(12, 44);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK_AND_ASSIGN(auto prop, Make(4));
  ASSERT_OK(prop->RunUntil(target));
  RunnerStats rs = prop->runner_stats();
  RollingPropagator::Stats roll = prop->rolling_stats();
  uint64_t strip_queries = 0;
  uint64_t strip_steps = 0;
  for (uint32_t p = 0; p < prop->partitions(); ++p) {
    strip_queries += prop->strip(p)->runner()->stats().queries;
    strip_steps += prop->strip(p)->rolling_stats().steps;
  }
  EXPECT_EQ(rs.queries, strip_queries);
  EXPECT_EQ(roll.steps, strip_steps);
  EXPECT_GT(rs.queries, 0u);
}

TEST_F(ParallelRollingTest, ZeroPartitionsRejected) {
  Result<std::unique_ptr<PartitionedRollingPropagator>> r = Make(0);
  EXPECT_FALSE(r.ok());
}

TEST_F(ParallelRollingTest, RepartitionFromSettledFrontierContinues) {
  RunUpdates(10, 45);
  Csn mid = env_.capture()->high_water_mark();
  {
    ASSERT_OK_AND_ASSIGN(auto prop, Make(2));
    ASSERT_OK(prop->RunUntil(mid));
    // Settle the tail so every strip reaches one uniform frontier.
    bool settled = false;
    while (!settled) {
      ASSERT_OK_AND_ASSIGN(settled, prop->TryFinish());
    }
  }
  uint64_t seq_before = 0;
  for (const auto& [p, state] : view_->LoadAllCursors()) {
    (void)p;
    seq_before = std::max(seq_before, state.next_step_seq);
  }

  // A different partition count resumes from the settled frontier.
  RunUpdates(8, 46);
  Csn target = env_.capture()->high_water_mark();
  ASSERT_OK_AND_ASSIGN(auto prop, Make(4));
  ASSERT_OK(prop->RunUntil(target));
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, target,
                                   /*stride=*/5));
  // The reseeded chains continued past the old generation's sequences, so
  // (partition, seq) stays globally unique across generations.
  for (const auto& [p, state] : view_->LoadAllCursors()) {
    (void)p;
    if (state.valid) {
      EXPECT_GE(state.next_step_seq, seq_before);
    }
  }
}

TEST_F(ParallelRollingTest, RepartitionFromUnsettledStateRefused) {
  RunUpdates(10, 47);
  {
    ASSERT_OK_AND_ASSIGN(auto prop, Make(2, /*interval=*/3));
    // Advance only strip 0: the two partitions' durable frontiers diverge,
    // which is exactly the state repartitioning must refuse.
    ASSERT_OK_AND_ASSIGN(bool advanced, prop->strip(0)->Step());
    ASSERT_TRUE(advanced);
  }
  Result<std::unique_ptr<PartitionedRollingPropagator>> r = Make(4);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(ParallelRollingTest, StarJoinIsNotPartitionable) {
  StarSchemaConfig config;
  config.num_dims = 2;
  config.dim_rows = 20;
  config.fact_rows = 100;
  config.prefix = "star_";
  ASSERT_OK_AND_ASSIGN(StarSchemaWorkload star,
                       StarSchemaWorkload::Create(env_.db(), config, 48));
  env_.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* sv,
                       env_.views()->CreateView("VStar", star.ViewDef()));
  ASSERT_OK(env_.views()->Materialize(sv));
  // No join-equivalence class touches both dimensions, so there is no
  // column set to hash-partition every term by.
  EXPECT_FALSE(ResolvePartitionColumns(sv->resolved).ok());
  ParallelRollingOptions options;
  options.partitions = 2;
  size_t n = sv->resolved.num_terms();
  Result<std::unique_ptr<PartitionedRollingPropagator>> r =
      PartitionedRollingPropagator::Create(
          env_.views(), sv,
          [n]() {
            std::vector<std::unique_ptr<IntervalPolicy>> policies;
            for (size_t i = 0; i < n; ++i) {
              policies.push_back(std::make_unique<FixedInterval>(5));
            }
            return policies;
          },
          std::move(options));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// --- MaintenanceService integration ---

class PartitionedMaintenanceTest : public ParallelRollingTest {
 protected:
  ::testing::AssertionResult MvMatchesOracle() {
    DeltaRows oracle = OracleViewState(env_.db(), view_, view_->mv->csn());
    if (!NetEquivalent(oracle, view_->mv->AsDeltaRows())) {
      return ::testing::AssertionFailure() << "MV diverges from oracle";
    }
    return ::testing::AssertionSuccess();
  }
};

TEST_F(PartitionedMaintenanceTest, BackgroundPartitionedDriversDrain) {
  env_.StartCapture();
  MaintenanceService::Options opts;
  opts.propagate_partitions = 4;
  MaintenanceService service(env_.views(), view_, opts);
  EXPECT_EQ(service.propagate_partitions(), 4u);
  ASSERT_NE(service.propagator(), nullptr);
  EXPECT_OK(service.partition_fallback());
  service.Start();
  UpdateStream r_stream(env_.db(), workload_.RStream(1, 61), 61);
  UpdateStream s_stream(env_.db(), workload_.SStream(2, 62), 62);
  for (int i = 0; i < 25; ++i) {
    ASSERT_OK(r_stream.RunTransaction());
    if (i % 3 == 0) ASSERT_OK(s_stream.RunTransaction());
  }
  Csn target = env_.db()->stable_csn();
  ASSERT_OK(service.Drain(target));
  ASSERT_OK(service.Stop());
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_TRUE(MvMatchesOracle());
  EXPECT_GT(service.runner_stats().queries, 0u);
  // Every partition slot published a mark, and the view's mark is their
  // minimum (never more).
  Csn min_slot = kMaxCsn;
  for (uint32_t p = 0; p < 4; ++p) {
    min_slot = std::min(min_slot, service.propagator()->partition_hwm(p));
  }
  EXPECT_GE(min_slot, target);
}

TEST_F(PartitionedMaintenanceTest, SynchronousPartitionedDrainWorks) {
  RunUpdates(12, 63);
  ASSERT_OK(env_.capture()->WaitForCsn(env_.db()->stable_csn()));
  MaintenanceService::Options opts;
  opts.propagate_partitions = 3;
  opts.checkpoint_every_steps = 2;
  MaintenanceService service(env_.views(), view_, opts);
  Csn target = env_.db()->stable_csn();
  ASSERT_OK(service.Drain(target));
  EXPECT_GE(view_->mv->csn(), target);
  EXPECT_TRUE(MvMatchesOracle());
  ASSERT_NE(service.checkpointer(), nullptr);
  EXPECT_GT(service.checkpointer()->checkpoints_written(), 0u);
}

TEST_F(PartitionedMaintenanceTest, NonPartitionableViewFallsBackToSerial) {
  StarSchemaConfig config;
  config.num_dims = 2;
  config.dim_rows = 20;
  config.fact_rows = 80;
  config.prefix = "fb_";
  ASSERT_OK_AND_ASSIGN(StarSchemaWorkload star,
                       StarSchemaWorkload::Create(env_.db(), config, 64));
  env_.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* sv,
                       env_.views()->CreateView("VFb", star.ViewDef()));
  ASSERT_OK(env_.views()->Materialize(sv));

  MaintenanceService::Options opts;
  opts.propagate_partitions = 4;
  MaintenanceService service(env_.views(), sv, opts);
  // Serial (one-strip) fallback, with the reason recorded.
  EXPECT_EQ(service.propagate_partitions(), 1u);
  ASSERT_NE(service.propagator(), nullptr);
  EXPECT_EQ(service.propagator()->partitions(), 1u);
  EXPECT_FALSE(service.partition_fallback().ok());

  UpdateStream fact_stream(env_.db(), star.FactStream(1, 65), 65);
  for (int i = 0; i < 10; ++i) ASSERT_OK(fact_stream.RunTransaction());
  env_.CatchUpCapture();
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  DeltaRows oracle = OracleViewState(env_.db(), sv, sv->mv->csn());
  EXPECT_TRUE(NetEquivalent(oracle, sv->mv->AsDeltaRows()));
}

// Regression: a default (one-partition) service over durable cursors of an
// unsettled two-partition run must refuse to propagate. Resuming only slot
// 0's chain would publish a view-delta high-water mark that misses
// partition 1's rows, and the apply would drive MV counts negative.
TEST_F(PartitionedMaintenanceTest, OnePartitionServiceRefusesUnsettledResume) {
  RunUpdates(10, 67);
  {
    ASSERT_OK_AND_ASSIGN(auto prop, Make(2, /*interval=*/3));
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK_AND_ASSIGN(bool advanced, prop->strip(0)->Step());
      ASSERT_TRUE(advanced);
    }
  }
  const Csn hwm_before = view_->high_water_mark();
  MaintenanceService service(env_.views(), view_);
  EXPECT_EQ(service.propagator(), nullptr);
  Status s = service.Drain(env_.db()->stable_csn());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(view_->high_water_mark(), hwm_before);
}

TEST_F(PartitionedMaintenanceTest, PartitionMetricsExported) {
  env_.StartCapture();
  obs::MetricsRegistry registry;
  MaintenanceService::Options opts;
  opts.propagate_partitions = 2;
  opts.trace_journal_capacity = 64;
  MaintenanceService service(env_.views(), view_, opts);
  service.RegisterMetrics(&registry);
  service.Start();
  RunUpdates(10, 66);
  ASSERT_OK(service.Drain(env_.db()->stable_csn()));
  ASSERT_OK(service.Stop());

  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.GaugeValue("rollview_view_partitions", {{"view", "V"}}), 2);
  Csn view_hwm = view_->high_water_mark();
  for (uint32_t p = 0; p < 2; ++p) {
    const obs::Sample* hwm =
        snap.Find("rollview_view_partition_hwm_csn",
                  {{"view", "V"}, {"partition", std::to_string(p)}});
    ASSERT_NE(hwm, nullptr);
    EXPECT_GE(hwm->gauge, static_cast<int64_t>(view_hwm));
  }
  // The strips traced into the shared journal.
  ASSERT_NE(service.trace_journal(), nullptr);
  EXPECT_GT(service.trace_journal()->recorded(), 0u);
}

}  // namespace
}  // namespace rollview
