#include <gtest/gtest.h>

#include <cstdint>

#include "ivm/rolling.h"
#include "ra/expr.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

using A = Expr::ArithOp;
using C = Expr::CmpOp;

Tuple Row(int64_t a, int64_t b, double d) {
  return Tuple{Value(a), Value(b), Value(d)};
}

TEST(ArithExprTest, IntegerArithmetic) {
  Tuple t = Row(10, 3, 0.0);
  auto eval = [&](A op) {
    return Expr::Arith(op, Expr::Column(0), Expr::Column(1))->Eval(t);
  };
  EXPECT_EQ(eval(A::kAdd), Value(int64_t{13}));
  EXPECT_EQ(eval(A::kSub), Value(int64_t{7}));
  EXPECT_EQ(eval(A::kMul), Value(int64_t{30}));
  EXPECT_EQ(eval(A::kDiv), Value(int64_t{3}));
  EXPECT_EQ(eval(A::kMod), Value(int64_t{1}));
  // Integral ops stay integral.
  EXPECT_EQ(eval(A::kDiv).type(), ValueType::kInt64);
}

TEST(ArithExprTest, DoublePromotion) {
  Tuple t = Row(10, 0, 2.5);
  auto e = Expr::Arith(A::kMul, Expr::Column(0), Expr::Column(2));
  EXPECT_EQ(e->Eval(t), Value(25.0));
  EXPECT_EQ(e->Eval(t).type(), ValueType::kDouble);
  // Modulo on doubles is NULL.
  EXPECT_TRUE(Expr::Arith(A::kMod, Expr::Column(2), Expr::Column(0))
                  ->Eval(t)
                  .is_null());
}

TEST(ArithExprTest, NullAndErrorPropagation) {
  Tuple t{Value(int64_t{4}), Value::Null(), Value("str")};
  EXPECT_TRUE(Expr::Arith(A::kAdd, Expr::Column(0), Expr::Column(1))
                  ->Eval(t)
                  .is_null());
  EXPECT_TRUE(Expr::Arith(A::kAdd, Expr::Column(0), Expr::Column(2))
                  ->Eval(t)
                  .is_null());
  // Division by zero -> NULL (and a NULL comparand makes predicates false).
  auto div0 = Expr::Arith(A::kDiv, Expr::Column(0),
                          Expr::Literal(Value(int64_t{0})));
  EXPECT_TRUE(div0->Eval(t).is_null());
  auto pred = Expr::Compare(C::kGt, div0, Expr::Literal(Value(int64_t{0})));
  EXPECT_FALSE(pred->EvalBool(t));
}

TEST(ArithExprTest, IntegerOverflowIsNull) {
  // An int64 result that does not fit is NULL, like division by zero --
  // never a wrapped value, undefined behaviour or a SIGFPE.
  constexpr int64_t kMax = INT64_MAX;
  constexpr int64_t kMin = INT64_MIN;
  auto eval = [](A op, int64_t x, int64_t y) {
    return Expr::Arith(op, Expr::Literal(Value(x)), Expr::Literal(Value(y)))
        ->Eval(Tuple{});
  };
  EXPECT_TRUE(eval(A::kAdd, kMax, 1).is_null());
  EXPECT_TRUE(eval(A::kSub, kMin, 1).is_null());
  EXPECT_TRUE(eval(A::kMul, kMax, 2).is_null());
  EXPECT_TRUE(eval(A::kDiv, kMin, -1).is_null());
  EXPECT_TRUE(eval(A::kMod, kMin, -1).is_null());
  // The boundaries themselves still compute.
  EXPECT_EQ(eval(A::kAdd, kMax - 1, 1), Value(kMax));
  EXPECT_EQ(eval(A::kSub, kMin + 1, 1), Value(kMin));
  EXPECT_EQ(eval(A::kDiv, kMin, 1), Value(kMin));
  EXPECT_EQ(eval(A::kMod, kMin, 1), Value(int64_t{0}));
  EXPECT_EQ(eval(A::kDiv, kMax, -1), Value(-kMax));
}

TEST(ArithExprTest, ComposesWithComparisonsAndShift) {
  // (c0 + c1) % 2 == 0
  auto expr = Expr::Compare(
      C::kEq,
      Expr::Arith(A::kMod,
                  Expr::Arith(A::kAdd, Expr::Column(4), Expr::Column(5)),
                  Expr::Literal(Value(int64_t{2}))),
      Expr::Literal(Value(int64_t{0})));
  auto shifted = expr->ShiftColumns(4);
  EXPECT_TRUE(shifted->EvalBool(Tuple{Value(int64_t{3}), Value(int64_t{5})}));
  EXPECT_FALSE(shifted->EvalBool(Tuple{Value(int64_t{3}), Value(int64_t{4})}));
  EXPECT_EQ(expr->MaxColumnIndex(), 5u);
  EXPECT_EQ(expr->MinColumnIndex(), 4u);
  EXPECT_EQ(shifted->ToString(), "((($0 + $1) % 2) = 0)");
}

TEST(ArithExprTest, WorksAsViewSelectionEndToEnd) {
  // A view whose selection uses arithmetic across terms:
  //   sigma(R.rval % 2 = S.sval % 2) -- parity match.
  TestEnv env;
  auto created = TwoTableWorkload::Create(env.db(), 30, 20, 4, 66);
  ASSERT_TRUE(created.ok());
  TwoTableWorkload workload = created.value();
  env.CatchUpCapture();

  SpjViewDef def = workload.ViewDef();
  auto parity = [](size_t col) {
    return Expr::Arith(A::kMod, Expr::Column(col),
                       Expr::Literal(Value(int64_t{2})));
  };
  def.selection = Expr::Compare(C::kEq, parity(2), parity(5));
  ASSERT_OK_AND_ASSIGN(View* view, env.views()->CreateView("V", def));
  ASSERT_OK(env.views()->Materialize(view));
  Csn t0 = view->propagate_from.load();

  UpdateStream stream(env.db(), workload.RStream(1, 9), 9);
  ASSERT_OK(stream.RunTransactions(10));
  env.CatchUpCapture();
  Csn target = env.capture()->high_water_mark();

  RollingPropagator prop(env.views(), view, /*uniform_interval=*/5);
  ASSERT_OK(prop.RunUntil(target));
  EXPECT_TRUE(CheckTimedDeltaSweep(env.db(), view, t0, target, 4));
}

}  // namespace
}  // namespace rollview
