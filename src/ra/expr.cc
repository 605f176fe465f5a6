#include "ra/expr.h"

#include <algorithm>
#include <cstdint>

namespace rollview {

ExprPtr Expr::Column(size_t index) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kColumn));
  e->column_index_ = index;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Compare(CmpOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kCompare));
  e->cmp_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kAnd));
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kOr));
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kNot));
  e->lhs_ = std::move(operand);
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::shared_ptr<Expr>(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

namespace {

Value EvalArith(Expr::ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  bool integral =
      a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
  if (a.type() == ValueType::kString || b.type() == ValueType::kString) {
    return Value::Null();  // arithmetic is numeric-only
  }
  if (integral) {
    // An int64 result that does not fit is NULL, like division by zero:
    // signed overflow is UB, and INT64_MIN / -1 traps.
    int64_t x = a.AsInt64();
    int64_t y = b.AsInt64();
    int64_t r = 0;
    bool overflow = false;
    switch (op) {
      case Expr::ArithOp::kAdd:
        overflow = __builtin_add_overflow(x, y, &r);
        break;
      case Expr::ArithOp::kSub:
        overflow = __builtin_sub_overflow(x, y, &r);
        break;
      case Expr::ArithOp::kMul:
        overflow = __builtin_mul_overflow(x, y, &r);
        break;
      case Expr::ArithOp::kDiv:
      case Expr::ArithOp::kMod:
        if (y == 0 || (x == INT64_MIN && y == -1)) return Value::Null();
        r = op == Expr::ArithOp::kDiv ? x / y : x % y;
        break;
    }
    return overflow ? Value::Null() : Value(r);
  }
  double x = a.NumericValue();
  double y = b.NumericValue();
  switch (op) {
    case Expr::ArithOp::kAdd:
      return Value(x + y);
    case Expr::ArithOp::kSub:
      return Value(x - y);
    case Expr::ArithOp::kMul:
      return Value(x * y);
    case Expr::ArithOp::kDiv:
      return y == 0.0 ? Value::Null() : Value(x / y);
    case Expr::ArithOp::kMod:
      return Value::Null();  // modulo is integral-only
  }
  return Value::Null();
}

}  // namespace

Value Expr::Eval(const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kColumn:
      return tuple[column_index_];
    case Kind::kLiteral:
      return literal_;
    case Kind::kCompare: {
      Value a = lhs_->Eval(tuple);
      Value b = rhs_->Eval(tuple);
      if (a.is_null() || b.is_null()) return Value(int64_t{0});
      bool r = false;
      switch (cmp_op_) {
        case CmpOp::kEq:
          r = (a == b);
          break;
        case CmpOp::kNe:
          r = (a != b);
          break;
        case CmpOp::kLt:
          r = (a < b);
          break;
        case CmpOp::kLe:
          r = (a <= b);
          break;
        case CmpOp::kGt:
          r = (a > b);
          break;
        case CmpOp::kGe:
          r = (a >= b);
          break;
      }
      return Value(static_cast<int64_t>(r));
    }
    case Kind::kAnd:
      return Value(static_cast<int64_t>(lhs_->EvalBool(tuple) &&
                                        rhs_->EvalBool(tuple)));
    case Kind::kOr:
      return Value(static_cast<int64_t>(lhs_->EvalBool(tuple) ||
                                        rhs_->EvalBool(tuple)));
    case Kind::kNot:
      return Value(static_cast<int64_t>(!lhs_->EvalBool(tuple)));
    case Kind::kArith:
      return EvalArith(arith_op_, lhs_->Eval(tuple), rhs_->Eval(tuple));
  }
  return Value();
}

bool Expr::EvalBool(const Tuple& tuple) const {
  Value v = Eval(tuple);
  if (v.is_null()) return false;
  return v.NumericValue() != 0.0;
}

size_t Expr::MaxColumnIndex() const {
  size_t max = SIZE_MAX;
  auto fold = [&max](size_t v) {
    if (v == SIZE_MAX) return;
    if (max == SIZE_MAX || v > max) max = v;
  };
  switch (kind_) {
    case Kind::kColumn:
      return column_index_;
    case Kind::kLiteral:
      return SIZE_MAX;
    default:
      if (lhs_) fold(lhs_->MaxColumnIndex());
      if (rhs_) fold(rhs_->MaxColumnIndex());
      return max;
  }
}

size_t Expr::MinColumnIndex() const {
  size_t min = SIZE_MAX;
  auto fold = [&min](size_t v) {
    if (v < min) min = v;
  };
  switch (kind_) {
    case Kind::kColumn:
      return column_index_;
    case Kind::kLiteral:
      return SIZE_MAX;
    default:
      if (lhs_) fold(lhs_->MinColumnIndex());
      if (rhs_) fold(rhs_->MinColumnIndex());
      return min;
  }
}

ExprPtr Expr::ShiftColumns(size_t offset) const {
  switch (kind_) {
    case Kind::kColumn:
      return Column(column_index_ - offset);
    case Kind::kLiteral:
      return Literal(literal_);
    case Kind::kCompare:
      return Compare(cmp_op_, lhs_->ShiftColumns(offset),
                     rhs_->ShiftColumns(offset));
    case Kind::kAnd:
      return And(lhs_->ShiftColumns(offset), rhs_->ShiftColumns(offset));
    case Kind::kOr:
      return Or(lhs_->ShiftColumns(offset), rhs_->ShiftColumns(offset));
    case Kind::kNot:
      return Not(lhs_->ShiftColumns(offset));
    case Kind::kArith:
      return Arith(arith_op_, lhs_->ShiftColumns(offset),
                   rhs_->ShiftColumns(offset));
  }
  return nullptr;
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return "$" + std::to_string(column_index_);
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kCompare: {
      const char* op = "?";
      switch (cmp_op_) {
        case CmpOp::kEq:
          op = "=";
          break;
        case CmpOp::kNe:
          op = "<>";
          break;
        case CmpOp::kLt:
          op = "<";
          break;
        case CmpOp::kLe:
          op = "<=";
          break;
        case CmpOp::kGt:
          op = ">";
          break;
        case CmpOp::kGe:
          op = ">=";
          break;
      }
      return "(" + lhs_->ToString() + " " + op + " " + rhs_->ToString() + ")";
    }
    case Kind::kAnd:
      return "(" + lhs_->ToString() + " AND " + rhs_->ToString() + ")";
    case Kind::kOr:
      return "(" + lhs_->ToString() + " OR " + rhs_->ToString() + ")";
    case Kind::kNot:
      return "(NOT " + lhs_->ToString() + ")";
    case Kind::kArith: {
      const char* op = "?";
      switch (arith_op_) {
        case ArithOp::kAdd:
          op = "+";
          break;
        case ArithOp::kSub:
          op = "-";
          break;
        case ArithOp::kMul:
          op = "*";
          break;
        case ArithOp::kDiv:
          op = "/";
          break;
        case ArithOp::kMod:
          op = "%";
          break;
      }
      return "(" + lhs_->ToString() + " " + op + " " + rhs_->ToString() + ")";
    }
  }
  return "?";
}

}  // namespace rollview
