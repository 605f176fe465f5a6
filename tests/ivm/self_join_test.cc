// Copyright 2026 The rollview Authors.
//
// Self-join views end to end: V = R |><|_{jkey} R', with and without the
// residual R.rkey < R'.rkey, maintained by the MaintenanceService on one
// and on two hash-partition strips. Both terms read the same base table and
// the same delta table, so every R update is a delta row of both terms:
// forward queries join a delta range with its own base table, and each
// compensation query joins two ranges of the one delta stream. After two R
// update streams drain, the MV must equal the snapshot oracle at its CSN and
// the view delta must be a timed delta table (Definition 4.2) over the
// whole drained window.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "ivm/maintenance.h"
#include "ra/expr.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

// (partitions, residual, seed)
using SelfJoinParam = std::tuple<uint32_t, bool, uint64_t>;

class SelfJoinTest : public ::testing::TestWithParam<SelfJoinParam> {};

TEST_P(SelfJoinTest, DrainMatchesOracle) {
  const auto [partitions, residual, seed] = GetParam();
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(
      TwoTableWorkload workload,
      TwoTableWorkload::Create(env.db(), /*r_rows=*/50, /*s_rows=*/10,
                               /*join_domain=*/6, seed));
  env.CatchUpCapture();

  SpjViewDef def;
  def.tables = {workload.r, workload.r};
  def.joins = {EquiJoin{0, 1, 1, 1}};  // R.jkey = R'.jkey
  if (residual) {
    // R(rkey, jkey, rval) ++ R'(rkey, jkey, rval): R.rkey < R'.rkey.
    def.selection =
        Expr::Compare(Expr::CmpOp::kLt, Expr::Column(0), Expr::Column(3));
  }
  ASSERT_OK_AND_ASSIGN(View* view, env.views()->CreateView("VSELF", def));
  ASSERT_OK(env.views()->Materialize(view));
  const Csn t0 = view->propagate_from.load();

  MaintenanceService::Options opts;
  opts.propagate_partitions = partitions;
  opts.target_rows_per_query = 3;  // many strips, many compensations
  opts.prune_view_delta = false;   // keep the window for the sweep
  MaintenanceService service(env.views(), view, opts);
  ASSERT_OK(service.partition_fallback());
  ASSERT_EQ(service.propagate_partitions(), partitions);

  UpdateStream first(env.db(), workload.RStream(1, seed + 1), seed + 1);
  UpdateStream second(env.db(), workload.RStream(2, seed + 2), seed + 2);
  for (int i = 0; i < 24; ++i) {
    ASSERT_OK(first.RunTransaction());
    ASSERT_OK(second.RunTransaction());
  }
  env.CatchUpCapture();
  ASSERT_OK(service.Drain(env.db()->stable_csn()));

  const Csn mv_csn = view->mv->csn();
  ASSERT_GT(mv_csn, t0);
  EXPECT_TRUE(NetEquivalent(view->mv->AsDeltaRows(),
                            OracleViewState(env.db(), view, mv_csn)));
  EXPECT_TRUE(CheckTimedDeltaSweep(env.db(), view, t0, mv_csn,
                                   std::max<Csn>(1, (mv_csn - t0) / 6)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelfJoinTest,
    ::testing::Combine(::testing::Values(1u, 2u), ::testing::Bool(),
                       ::testing::Values(uint64_t{5}, uint64_t{29})),
    [](const ::testing::TestParamInfo<SelfJoinParam>& info) {
      return "P" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_residual" : "_equi") + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace rollview
