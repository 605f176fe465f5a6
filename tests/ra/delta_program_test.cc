// Copyright 2026 The rollview Authors.
//
// Compiled delta programs (ra/delta_program.h): golden plan dumps for the
// lowering (byte-stable across runs -- the plan-drift tripwire), half-join
// de-duplication on self-join shapes, compiled-vs-interpreted equivalence
// under Definition 4.2, half-join maintenance on the forward path,
// graceful per-term fallback for unflattenable residuals, and the
// incremental-advance / reset-rebuild lifecycle.

#include "ra/delta_program.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "ivm/propagate.h"
#include "ra/expr.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

// --- Golden dumps -------------------------------------------------------
//
// The dump depends only on the definition (table names, expression text),
// so two independently constructed engines with the same creation order
// must produce byte-identical text, and that text must match the goldens
// below exactly. A diff here means the lowering changed -- update the
// golden deliberately, never incidentally.

std::string CompileTwoTableDump(uint64_t seed) {
  TestEnv env;
  Result<TwoTableWorkload> w =
      TwoTableWorkload::Create(env.db(), 10, 10, 4, seed);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  SpjViewDef def = w.value().ViewDef();
  auto programs =
      ViewPrograms::Compile(env.db(), def.tables, def.joins, def.selection,
                            def.projection, "V");
  return programs->Dump();
}

TEST(DeltaProgramGoldenTest, TwoTableDumpIsByteStable) {
  const std::string kGolden =
      "== compiled delta programs: V ==\n"
      "half_join[0]: members=[S] joins=[] key=[c1] residual=(none)\n"
      "half_join[1]: members=[R] joins=[] key=[c1] residual=(none)\n"
      "program[0]: delta=R\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[0] on d(c1)\n"
      "  cross_checks: (none)\n"
      "  project: d.c0 d.c1 d.c2 g0.c0 g0.c1 g0.c2\n"
      "program[1]: delta=S\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[1] on d(c1)\n"
      "  cross_checks: (none)\n"
      "  project: g0.c0 g0.c1 g0.c2 d.c0 d.c1 d.c2\n";
  std::string first = CompileTwoTableDump(1);
  EXPECT_EQ(first, kGolden);
  // Independent engine, different data, same definition: identical bytes.
  EXPECT_EQ(CompileTwoTableDump(2), first);
}

TEST(DeltaProgramGoldenTest, StarSchemaDump) {
  TestEnv env;
  StarSchemaConfig config;
  config.num_dims = 2;
  config.dim_rows = 10;
  config.fact_rows = 20;
  ASSERT_OK_AND_ASSIGN(StarSchemaWorkload w,
                       StarSchemaWorkload::Create(env.db(), config, 7));
  SpjViewDef def = w.ViewDef();
  auto programs =
      ViewPrograms::Compile(env.db(), def.tables, def.joins, def.selection,
                            def.projection, "VSTAR");
  // fact(fkey,d0,d1,amount) |><| dim0(dkey,attr,label)
  //                         |><| dim1(dkey,attr,label):
  //  * delta on fact probes the two (disconnected) dimension groups;
  //  * delta on a dimension probes ONE half-join spanning fact and the
  //    other dimension (connected through the fact table).
  const std::string kGolden =
      "== compiled delta programs: VSTAR ==\n"
      "half_join[0]: members=[dim0] joins=[] key=[c0] residual=(none)\n"
      "half_join[1]: members=[dim1] joins=[] key=[c0] residual=(none)\n"
      "half_join[2]: members=[fact dim1] joins=[m0.c2=m1.c0] key=[c1] "
      "residual=(none)\n"
      "half_join[3]: members=[fact dim0] joins=[m0.c1=m1.c0] key=[c2] "
      "residual=(none)\n"
      "program[0]: delta=fact\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[0] on d(c1)\n"
      "  probe: g1 <- half_join[1] on d(c2)\n"
      "  cross_checks: (none)\n"
      "  project: d.c0 d.c1 d.c2 d.c3 g0.c0 g0.c1 g0.c2 g1.c0 g1.c1 g1.c2\n"
      "program[1]: delta=dim0\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[2] on d(c0)\n"
      "  cross_checks: (none)\n"
      "  project: g0.c0 g0.c1 g0.c2 g0.c3 d.c0 d.c1 d.c2 g0.c4 g0.c5 g0.c6\n"
      "program[2]: delta=dim1\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[3] on d(c0)\n"
      "  cross_checks: (none)\n"
      "  project: g0.c0 g0.c1 g0.c2 g0.c3 g0.c4 g0.c5 g0.c6 d.c0 d.c1 "
      "d.c2\n";
  EXPECT_EQ(programs->Dump(), kGolden);
  EXPECT_EQ(programs->num_compiled(), 3u);
  EXPECT_EQ(programs->num_half_joins(), 4u);
}

TEST(DeltaProgramGoldenTest, SelfJoinSharesOneHalfJoin) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload w,
                       TwoTableWorkload::Create(env.db(), 10, 10, 4, 3));
  // R |><|_{jkey} R: the two symmetric programs' half-join specs are
  // structurally identical and must share one materialized view.
  SpjViewDef def;
  def.tables = {w.r, w.r};
  def.joins = {EquiJoin{0, 1, 1, 1}};
  auto programs =
      ViewPrograms::Compile(env.db(), def.tables, def.joins, def.selection,
                            def.projection, "VSELF");
  const std::string kGolden =
      "== compiled delta programs: VSELF ==\n"
      "half_join[0]: members=[R] joins=[] key=[c1] residual=(none)\n"
      "program[0]: delta=R\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[0] on d(c1)\n"
      "  cross_checks: (none)\n"
      "  project: d.c0 d.c1 d.c2 g0.c0 g0.c1 g0.c2\n"
      "program[1]: delta=R\n"
      "  status: compiled\n"
      "  delta_pred: (none)\n"
      "  delta_checks: (none)\n"
      "  probe: g0 <- half_join[0] on d(c1)\n"
      "  cross_checks: (none)\n"
      "  project: g0.c0 g0.c1 g0.c2 d.c0 d.c1 d.c2\n";
  EXPECT_EQ(programs->Dump(), kGolden);
  EXPECT_EQ(programs->num_half_joins(), 1u);
  EXPECT_EQ(programs->num_compiled(), 2u);
}

TEST(DeltaProgramGoldenTest, PushdownAndLocalPredicatesCompile) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload w,
                       TwoTableWorkload::Create(env.db(), 10, 10, 4, 5));
  SpjViewDef def = w.ViewDef();
  // sval >= 0: local to S (concat col 5). For delta-on-R it is pushed into
  // the S half-join's residual (remapped to member-concat col 2); for
  // delta-on-S it compiles into the flat delta predicate (local col 2).
  def.selection = Expr::Compare(Expr::CmpOp::kGe, Expr::Column(5),
                                Expr::Literal(Value(int64_t{0})));
  auto programs =
      ViewPrograms::Compile(env.db(), def.tables, def.joins, def.selection,
                            def.projection, "VSEL");
  std::string dump = programs->Dump();
  EXPECT_EQ(programs->num_compiled(), 2u) << dump;
  EXPECT_NE(dump.find("residual=($2 >= 0)"), std::string::npos) << dump;
  EXPECT_NE(dump.find("delta_pred: ($2 >= 0)"), std::string::npos) << dump;
}

TEST(DeltaProgramGoldenTest, UnflattenableResidualStaysInterpreted) {
  TestEnv env;
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload w,
                       TwoTableWorkload::Create(env.db(), 10, 10, 4, 9));
  SpjViewDef def = w.ViewDef();
  // rval + sval < 100 spans both terms through an arithmetic node: not a
  // flat column/column comparison, so neither program compiles.
  def.selection = Expr::Compare(
      Expr::CmpOp::kLt,
      Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(2), Expr::Column(5)),
      Expr::Literal(Value(int64_t{100})));
  auto programs =
      ViewPrograms::Compile(env.db(), def.tables, def.joins, def.selection,
                            def.projection, "VX");
  EXPECT_EQ(programs->num_compiled(), 0u) << programs->Dump();
  EXPECT_FALSE(programs->compiled(0));
  EXPECT_FALSE(programs->compiled(1));
  EXPECT_NE(programs->Dump().find("status: interpreted"), std::string::npos);
}

// --- End-to-end propagation --------------------------------------------

// Loads the seeded two-table workload and materializes view "V" over it.
// The workload and update streams are deterministic, so engines loaded
// alike see the same commit history.
void LoadSeeded(TestEnv* env, TwoTableWorkload* workload, View** view) {
  ASSERT_OK_AND_ASSIGN(*workload,
                       TwoTableWorkload::Create(env->db(), 40, 30, 6, 19));
  env->CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(*view,
                       env->views()->CreateView("V", workload->ViewDef()));
  ASSERT_OK(env->views()->Materialize(*view));
}

void RunSeededUpdates(TestEnv* env, const TwoTableWorkload& workload,
                      size_t txns, uint64_t seed, bool touch_s = true) {
  UpdateStream r_stream(env->db(), workload.RStream(1, seed), seed);
  UpdateStream s_stream(env->db(), workload.SStream(2, seed + 1), seed + 1);
  for (size_t i = 0; i < txns; ++i) {
    ASSERT_OK(r_stream.RunTransaction());
    if (touch_s && i % 2 == 1) ASSERT_OK(s_stream.RunTransaction());
  }
  env->CatchUpCapture();
}

class DeltaProgramPropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_NO_FATAL_FAILURE(LoadSeeded(&env_, &workload_, &view_));
    ASSERT_NE(view_->programs, nullptr)
        << "CreateView must compile delta programs by default";
    t0_ = view_->propagate_from.load();
  }

  void RunUpdates(size_t txns, uint64_t seed, bool touch_s = true) {
    RunSeededUpdates(&env_, workload_, txns, seed, touch_s);
  }

  TestEnv env_;
  TwoTableWorkload workload_;
  View* view_ = nullptr;
  Csn t0_ = kNullCsn;
};

TEST_F(DeltaProgramPropagationTest, CompiledMatchesInterpreted) {
  RunUpdates(14, 21);
  Csn ready = env_.capture()->high_water_mark();

  // Compiled path, small strips (many forward queries through the probes).
  Propagator compiled(env_.views(), view_,
                      std::make_unique<FixedInterval>(2));
  ASSERT_OK(compiled.RunUntil(ready));
  EXPECT_GT(compiled.runner()->stats().exec.compiled_queries, 0u);
  EXPECT_GT(compiled.runner()->stats().exec.compiled_probe_rows, 0u);
  DeltaRows compiled_delta = view_->view_delta->Scan(CsnRange{t0_, ready});

  // Interpreted path over the identical history, on an engine that does
  // not compile delta programs.
  DbOptions interp_opts;
  interp_opts.compile_delta_programs = false;
  TestEnv interp_env(CaptureOptions{}, interp_opts);
  TwoTableWorkload interp_workload;
  View* v2 = nullptr;
  ASSERT_NO_FATAL_FAILURE(LoadSeeded(&interp_env, &interp_workload, &v2));
  ASSERT_EQ(v2->programs, nullptr);
  ASSERT_EQ(v2->propagate_from.load(), t0_);
  ASSERT_NO_FATAL_FAILURE(
      RunSeededUpdates(&interp_env, interp_workload, 14, 21));
  ASSERT_EQ(interp_env.capture()->high_water_mark(), ready);
  Propagator interpreted(interp_env.views(), v2,
                         std::make_unique<FixedInterval>(2));
  ASSERT_OK(interpreted.RunUntil(ready));
  EXPECT_EQ(interpreted.runner()->stats().exec.compiled_queries, 0u);
  DeltaRows interpreted_delta = v2->view_delta->Scan(CsnRange{t0_, ready});

  EXPECT_TRUE(NetEquivalent(compiled_delta, interpreted_delta));
  // Definition 4.2 over the compiled view's whole window.
  EXPECT_TRUE(CheckTimedDeltaSweep(env_.db(), view_, t0_, ready,
                                   std::max<Csn>(1, (ready - t0_) / 5)));
}

TEST_F(DeltaProgramPropagationTest, ForwardOnlyWorkloadProbesHalfJoins) {
  // Forward-only workload (R changes, S is quiet): every propagation query
  // takes the compiled path and probes the half-join view it built.
  RunUpdates(10, 31, /*touch_s=*/false);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), view_, std::make_unique<FixedInterval>(2));
  ASSERT_OK(prop.RunUntil(ready));

  const ExecStats& es = prop.runner()->stats().exec;
  EXPECT_GT(es.compiled_queries, 0u);
  EXPECT_GT(es.half_join_hits + es.half_join_misses, 0u);
  EXPECT_GE(es.half_join_rebuilds, 1u);  // first query built HJ(S)
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, ready));
}

TEST_F(DeltaProgramPropagationTest, HalfJoinAdvancesIncrementally) {
  RunUpdates(8, 41);
  Propagator prop(env_.views(), view_, std::make_unique<DrainInterval>());
  ASSERT_OK(prop.RunUntil(env_.capture()->high_water_mark()));
  const ExecStats& es = prop.runner()->stats().exec;
  uint64_t rebuilds_after_first = es.half_join_rebuilds;
  EXPECT_GE(rebuilds_after_first, 1u);

  // Both members change; the next round must advance the half-joins
  // incrementally (telescoping expansion), not rebuild them.
  RunUpdates(8, 43);
  Csn ready = env_.capture()->high_water_mark();
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_GE(es.half_join_advances, 1u);
  EXPECT_EQ(es.half_join_rebuilds, rebuilds_after_first);
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, ready));

  // Reset drops the derived state (the crash-recovery hook); the next
  // round deterministically rebuilds and stays correct.
  view_->programs->Reset();
  EXPECT_EQ(view_->programs->half_join_rows(), 0u);
  RunUpdates(4, 47);
  ready = env_.capture()->high_water_mark();
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_GT(es.half_join_rebuilds, rebuilds_after_first);
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), view_, t0_, ready));
}

TEST_F(DeltaProgramPropagationTest, UncompiledViewFallsBackSilently) {
  // A view whose residual cannot be flattened keeps programs (for Dump)
  // but every term is interpreted; propagation with the compiled option ON
  // must transparently use the interpreted executor and stay correct.
  SpjViewDef def = workload_.ViewDef();
  def.selection = Expr::Compare(
      Expr::CmpOp::kLt,
      Expr::Arith(Expr::ArithOp::kAdd, Expr::Column(2), Expr::Column(5)),
      Expr::Literal(Value(int64_t{1'000'000})));
  ASSERT_OK_AND_ASSIGN(View* vx, env_.views()->CreateView("VX", def));
  ASSERT_OK(env_.views()->Materialize(vx));
  ASSERT_NE(vx->programs, nullptr);
  EXPECT_EQ(vx->programs->num_compiled(), 0u);
  Csn tx0 = vx->propagate_from.load();

  RunUpdates(10, 51);
  Csn ready = env_.capture()->high_water_mark();
  Propagator prop(env_.views(), vx, std::make_unique<FixedInterval>(3));
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_EQ(prop.runner()->stats().exec.compiled_queries, 0u);
  EXPECT_TRUE(CheckTimedDeltaWindow(env_.db(), vx, tx0, ready));
}

TEST_F(DeltaProgramPropagationTest, CompileFlagOffSkipsPrograms) {
  DbOptions options;
  options.compile_delta_programs = false;
  TestEnv env(CaptureOptions{}, options);
  ASSERT_OK_AND_ASSIGN(TwoTableWorkload w,
                       TwoTableWorkload::Create(env.db(), 20, 20, 4, 61));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* v, env.views()->CreateView("V", w.ViewDef()));
  ASSERT_OK(env.views()->Materialize(v));
  EXPECT_EQ(v->programs, nullptr);
  Csn v0 = v->propagate_from.load();

  UpdateStream updates(env.db(), w.RStream(1, 62), 62);
  for (int i = 0; i < 6; ++i) ASSERT_OK(updates.RunTransaction());
  env.CatchUpCapture();
  Csn ready = env.capture()->high_water_mark();
  Propagator prop(env.views(), v, std::make_unique<DrainInterval>());
  ASSERT_OK(prop.RunUntil(ready));
  EXPECT_EQ(prop.runner()->stats().exec.compiled_queries, 0u);
  EXPECT_TRUE(CheckTimedDeltaWindow(env.db(), v, v0, ready));
}

}  // namespace
}  // namespace rollview
