// Copyright 2026 The rollview Authors.
//
// CompiledPred: a selection predicate flattened for per-row evaluation.
// Conjuncts of the shape `Column <op> Literal` (or mirrored) run as direct
// Value comparisons -- no Expr-tree recursion, no per-row Value copies --
// which matters because this runs on every raw row of every delta range a
// query materializes. Anything else falls back to the Expr interpreter via
// the `rest` conjunct. The join executor (ra/executor.cc) compiles each
// single-term conjunct of a residual selection into one of these and
// applies it to that term's rows before the join.

#ifndef ROLLVIEW_RA_COMPILED_PRED_H_
#define ROLLVIEW_RA_COMPILED_PRED_H_

#include <vector>

#include "ra/expr.h"
#include "schema/tuple.h"

namespace rollview {

// Flattens a conjunction tree into its conjuncts (no-op on null).
void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

// Conjunction of two optional predicates (null = true).
ExprPtr AndTogether(ExprPtr a, ExprPtr b);

// The comparison with operands swapped (kEq/kNe are symmetric).
Expr::CmpOp MirrorCmp(Expr::CmpOp op);

struct CompiledPred {
  struct Simple {
    size_t col;
    Expr::CmpOp op;
    Value lit;
  };
  std::vector<Simple> simple;
  ExprPtr rest;  // conjuncts the fast path cannot represent (may be null)

  bool empty() const { return simple.empty() && rest == nullptr; }

  bool Admits(const Tuple& t) const {
    for (const Simple& s : simple) {
      const Value& v = t[s.col];
      if (v.is_null()) return false;
      bool r = false;
      switch (s.op) {
        case Expr::CmpOp::kEq: r = (v == s.lit); break;
        case Expr::CmpOp::kNe: r = (v != s.lit); break;
        case Expr::CmpOp::kLt: r = (v < s.lit); break;
        case Expr::CmpOp::kLe: r = (v <= s.lit); break;
        case Expr::CmpOp::kGt: r = (v > s.lit); break;
        case Expr::CmpOp::kGe: r = (v >= s.lit); break;
      }
      if (!r) return false;
    }
    return rest == nullptr || rest->EvalBool(t);
  }
};

// Splits `pred` into column-vs-literal fast-path conjuncts and an
// interpreter-evaluated remainder.
CompiledPred CompilePred(const ExprPtr& pred);

}  // namespace rollview

#endif  // ROLLVIEW_RA_COMPILED_PRED_H_
