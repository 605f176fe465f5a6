// Copyright 2026 The rollview Authors.
//
// Renderer contract tests: the digest must distinguish a metric that is
// absent from the snapshot (rendered `-`) from one that is present with
// value zero (rendered `0`) -- a bare registry scraping a non-adaptive
// service must not fabricate zeros -- and the --watch frame must degrade
// the same way when a view exports no freshness pipeline.

#include "obs/inspect.h"

#include <gtest/gtest.h>

#include <string>

#include "common/metrics.h"
#include "obs/registry.h"

namespace rollview {
namespace {

// A minimal "view exists" snapshot: only the hwm gauge (which is what the
// digest keys views off), plus whatever the test adds.
class InspectTest : public ::testing::Test {
 protected:
  void AddGauge(const std::string& name, int64_t value) {
    registry_.RegisterGaugeFn(name, {{"view", "V"}}, [value] { return value; },
                              this);
  }
  void AddCounter(const std::string& name, uint64_t value) {
    registry_.RegisterCounterFn(name, {{"view", "V"}},
                                [value] { return value; }, this);
  }
  // The shedding state set: one rollview_shedding_reason series per
  // reason, `active` reading 1.
  void AddSheddingReason(const std::string& active) {
    for (const char* reason : {"none", "wal_full", "staleness"}) {
      const int64_t value = reason == active ? 1 : 0;
      registry_.RegisterGaugeFn("rollview_shedding_reason",
                                {{"view", "V"}, {"reason", reason}},
                                [value] { return value; }, this);
    }
  }

  obs::MetricsRegistry registry_;
};

TEST_F(InspectTest, AbsentMetricsRenderAsDashNotZero) {
  AddGauge("rollview_view_hwm_csn", 12);
  AddGauge("rollview_view_mv_csn", 0);  // present AND zero: must print 0
  // staleness / target_rows / backlog / shedding: never registered.
  std::string digest = obs::RenderViewDigest(registry_.Snapshot());

  EXPECT_NE(digest.find("hwm=12"), std::string::npos) << digest;
  EXPECT_NE(digest.find("mv=0"), std::string::npos) << digest;
  EXPECT_NE(digest.find("staleness=-"), std::string::npos) << digest;
  EXPECT_NE(digest.find("target_rows=-"), std::string::npos) << digest;
  EXPECT_NE(digest.find("backlog=-"), std::string::npos) << digest;
  EXPECT_NE(digest.find("shedding=-"), std::string::npos) << digest;
  // A true zero never degrades to a dash.
  EXPECT_EQ(digest.find("mv=-"), std::string::npos) << digest;
}

TEST_F(InspectTest, PresentZeroVersusAbsentAreDistinguishable) {
  AddGauge("rollview_view_hwm_csn", 5);
  AddGauge("rollview_view_staleness_csn", 0);
  AddGauge("rollview_view_backlog_rows", 0);
  AddSheddingReason("none");
  std::string digest = obs::RenderViewDigest(registry_.Snapshot());

  EXPECT_NE(digest.find("staleness=0"), std::string::npos) << digest;
  EXPECT_NE(digest.find("backlog=0"), std::string::npos) << digest;
  EXPECT_NE(digest.find("shedding=none"), std::string::npos) << digest;
  // target_rows stays absent -> dash.
  EXPECT_NE(digest.find("target_rows=-"), std::string::npos) << digest;
}

TEST_F(InspectTest, DigestRendersTheActiveSheddingReason) {
  AddGauge("rollview_view_hwm_csn", 5);
  AddSheddingReason("staleness");
  std::string digest = obs::RenderViewDigest(registry_.Snapshot());
  EXPECT_NE(digest.find("shedding=staleness"), std::string::npos) << digest;
}

TEST_F(InspectTest, WatchFrameRendersTheActiveSheddingReason) {
  AddGauge("rollview_view_hwm_csn", 5);
  AddSheddingReason("wal_full");
  std::string frame = obs::RenderWatchFrame(registry_.Snapshot(), 2);
  EXPECT_NE(frame.find("shedding=wal_full"), std::string::npos) << frame;
}

TEST_F(InspectTest, DigestEmptyWithoutViews) {
  AddGauge("rollview_unrelated_gauge", 3);
  EXPECT_EQ(obs::RenderViewDigest(registry_.Snapshot()), "");
}

TEST_F(InspectTest, FreshnessDigestLineAppearsOnlyWithPipeline) {
  AddGauge("rollview_view_hwm_csn", 9);
  std::string without = obs::RenderViewDigest(registry_.Snapshot());
  EXPECT_EQ(without.find("e2e"), std::string::npos) << without;

  LatencyHistogram e2e;
  e2e.Record(2'000'000);  // 2ms
  registry_.RegisterHistogram("rollview_freshness_e2e_nanos",
                              {{"view", "V"}}, &e2e, this);
  AddGauge("rollview_view_staleness_usec", 150);
  AddCounter("rollview_freshness_commits_total", 7);
  std::string with = obs::RenderViewDigest(registry_.Snapshot());
  EXPECT_NE(with.find("staleness=150us"), std::string::npos) << with;
  EXPECT_NE(with.find("e2e p50=2.0ms"), std::string::npos) << with;
  EXPECT_NE(with.find("commits=7"), std::string::npos) << with;
  // Registered via this-owner histograms; drop before the locals die.
  registry_.DropOwner(this);
}

TEST_F(InspectTest, WatchFrameDegradesToDashes) {
  AddGauge("rollview_view_hwm_csn", 4);
  std::string frame = obs::RenderWatchFrame(registry_.Snapshot(), 3);
  EXPECT_NE(frame.find("frame=3"), std::string::npos) << frame;
  EXPECT_NE(frame.find("views=1"), std::string::npos) << frame;
  EXPECT_NE(frame.find("freshness  -"), std::string::npos) << frame;
  EXPECT_NE(frame.find("shedding=-"), std::string::npos) << frame;
  // No SLO gauges -> no slo line at all.
  EXPECT_EQ(frame.find("slo "), std::string::npos) << frame;
  // Driver counters degrade per-cell.
  EXPECT_NE(frame.find("propagate ok=- err=-"), std::string::npos) << frame;
}

TEST_F(InspectTest, WatchFrameRendersStageSharesFromTelescopingSums) {
  AddGauge("rollview_view_hwm_csn", 20);
  AddGauge("rollview_view_mv_csn", 20);
  LatencyHistogram e2e, durable, pickup, propagate, apply;
  // One 10ms commit decomposed 1/2/3/4 ms: shares 10/20/30/40%.
  e2e.Record(10'000'000);
  durable.Record(1'000'000);
  pickup.Record(2'000'000);
  propagate.Record(3'000'000);
  apply.Record(4'000'000);
  registry_.RegisterHistogram("rollview_freshness_e2e_nanos",
                              {{"view", "V"}}, &e2e, this);
  registry_.RegisterHistogram("rollview_freshness_stage_nanos",
                              {{"view", "V"}, {"stage", "durable"}}, &durable,
                              this);
  registry_.RegisterHistogram("rollview_freshness_stage_nanos",
                              {{"view", "V"}, {"stage", "pickup"}}, &pickup,
                              this);
  registry_.RegisterHistogram("rollview_freshness_stage_nanos",
                              {{"view", "V"}, {"stage", "propagate"}},
                              &propagate, this);
  registry_.RegisterHistogram("rollview_freshness_stage_nanos",
                              {{"view", "V"}, {"stage", "apply"}}, &apply,
                              this);
  AddGauge("rollview_slo_target_usec", 25000);
  AddGauge("rollview_slo_burn_x1000", 250);
  AddGauge("rollview_slo_breaching", 0);

  std::string frame = obs::RenderWatchFrame(registry_.Snapshot(), 1);
  EXPECT_NE(frame.find("durable=10%"), std::string::npos) << frame;
  EXPECT_NE(frame.find("pickup=20%"), std::string::npos) << frame;
  EXPECT_NE(frame.find("propagate=30%"), std::string::npos) << frame;
  EXPECT_NE(frame.find("apply=40%"), std::string::npos) << frame;
  EXPECT_NE(frame.find("p50=10.0ms"), std::string::npos) << frame;
  EXPECT_NE(frame.find("target=25000us"), std::string::npos) << frame;
  EXPECT_NE(frame.find("burn=0.25"), std::string::npos) << frame;
  EXPECT_NE(frame.find("breaching=no"), std::string::npos) << frame;
  registry_.DropOwner(this);
}

}  // namespace
}  // namespace rollview
