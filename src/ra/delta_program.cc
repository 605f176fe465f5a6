#include "ra/delta_program.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <utility>

#include "capture/delta_table.h"
#include "ra/executor.h"
#include "storage/versioned_table.h"

namespace rollview {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* CmpOpStr(Expr::CmpOp op) {
  switch (op) {
    case Expr::CmpOp::kEq: return "==";
    case Expr::CmpOp::kNe: return "!=";
    case Expr::CmpOp::kLt: return "<";
    case Expr::CmpOp::kLe: return "<=";
    case Expr::CmpOp::kGt: return ">";
    case Expr::CmpOp::kGe: return ">=";
  }
  return "?";
}

void CollectColumns(const ExprPtr& e, std::vector<size_t>* out) {
  if (e == nullptr) return;
  switch (e->kind()) {
    case Expr::Kind::kColumn:
      out->push_back(e->column_index());
      return;
    case Expr::Kind::kLiteral:
      return;
    default:
      CollectColumns(e->lhs(), out);
      CollectColumns(e->rhs(), out);
      return;
  }
}

// Rebuilds `e` with every column index mapped through `map` (-1 =
// unmappable). Returns nullptr when any referenced column is unmappable.
ExprPtr RemapColumns(const ExprPtr& e, const std::vector<int64_t>& map) {
  if (e == nullptr) return nullptr;
  switch (e->kind()) {
    case Expr::Kind::kColumn: {
      size_t idx = e->column_index();
      if (idx >= map.size() || map[idx] < 0) return nullptr;
      return Expr::Column(static_cast<size_t>(map[idx]));
    }
    case Expr::Kind::kLiteral:
      return Expr::Literal(e->literal());
    case Expr::Kind::kCompare: {
      ExprPtr l = RemapColumns(e->lhs(), map);
      ExprPtr r = RemapColumns(e->rhs(), map);
      if (l == nullptr || r == nullptr) return nullptr;
      return Expr::Compare(e->cmp_op(), std::move(l), std::move(r));
    }
    case Expr::Kind::kAnd: {
      ExprPtr l = RemapColumns(e->lhs(), map);
      ExprPtr r = RemapColumns(e->rhs(), map);
      if (l == nullptr || r == nullptr) return nullptr;
      return Expr::And(std::move(l), std::move(r));
    }
    case Expr::Kind::kOr: {
      ExprPtr l = RemapColumns(e->lhs(), map);
      ExprPtr r = RemapColumns(e->rhs(), map);
      if (l == nullptr || r == nullptr) return nullptr;
      return Expr::Or(std::move(l), std::move(r));
    }
    case Expr::Kind::kNot: {
      ExprPtr l = RemapColumns(e->lhs(), map);
      if (l == nullptr) return nullptr;
      return Expr::Not(std::move(l));
    }
    case Expr::Kind::kArith: {
      ExprPtr l = RemapColumns(e->lhs(), map);
      ExprPtr r = RemapColumns(e->rhs(), map);
      if (l == nullptr || r == nullptr) return nullptr;
      return Expr::Arith(e->arith_op(), std::move(l), std::move(r));
    }
  }
  return nullptr;
}

// The Value a Check operand addresses within one probe combination; `match`
// holds the matched group tuples (half-join rows or window rows).
inline const Value& CheckOperand(uint8_t src, uint32_t col, const Tuple& delta,
                                 const std::vector<const Tuple*>& match) {
  if (src == 0) return delta[col];
  return (*match[src - 1])[col];
}

inline bool PassesCheck(const DeltaProgram::Check& c, const Tuple& delta,
                        const std::vector<const Tuple*>& match) {
  const Value& a = CheckOperand(c.a_src, c.a_col, delta, match);
  const Value& b = c.vs_literal
                       ? c.literal
                       : CheckOperand(c.b_src, c.b_col, delta, match);
  if (c.null_eq) {
    // Equi-join semantics: raw Value comparison, exactly like the
    // executor's JoinKey equality (NULL == NULL matches).
    switch (c.op) {
      case Expr::CmpOp::kEq: return a == b;
      case Expr::CmpOp::kNe: return !(a == b);
      default: break;  // only ever built with kEq/kNe
    }
  }
  return EvalCmp(c.op, a, b);
}

}  // namespace

// --------------------------------------------------------------------------
// HalfJoinSpec

std::string HalfJoinSpec::CanonicalKey() const {
  std::ostringstream os;
  os << "m=";
  for (size_t i = 0; i < members.size(); ++i) {
    if (i) os << ",";
    os << members[i].table;
  }
  os << ";j=";
  for (size_t i = 0; i < joins.size(); ++i) {
    if (i) os << ",";
    os << joins[i].left_term << "." << joins[i].left_col << "="
       << joins[i].right_term << "." << joins[i].right_col;
  }
  os << ";k=";
  for (size_t i = 0; i < index_cols.size(); ++i) {
    if (i) os << ",";
    os << index_cols[i];
  }
  os << ";r=" << (residual ? residual->ToString() : "-");
  return os.str();
}

// --------------------------------------------------------------------------
// HalfJoinView

HalfJoinView::HalfJoinView(HalfJoinSpec spec,
                           std::vector<std::string> member_names)
    : spec_(std::move(spec)),
      member_names_(std::move(member_names)),
      residual_pred_(CompilePred(spec_.residual)) {}

bool HalfJoinView::FreshLocked(Db* db) const {
  if (!built_) return false;
  const Csn as_of = as_of_.load(std::memory_order_relaxed);
  for (const HalfJoinSpec::Member& m : spec_.members) {
    if (db->table(m.table)->last_change_csn() > as_of) return false;
  }
  return true;
}

Result<HalfJoinView::ProbeGuard> HalfJoinView::EnsureFresh(Db* db,
                                                           Csn delta_ready,
                                                           ExecStats* stats) {
  for (;;) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      if (FreshLocked(db)) {
        ProbeGuard g;
        g.hj_ = this;
        g.lock_ = std::move(lk);
        return g;
      }
    }
    {
      std::unique_lock<std::shared_mutex> lk(mu_);
      if (!FreshLocked(db)) {
        Status s = AdvanceLocked(db, delta_ready, stats);
        if (!s.ok()) return s;
      }
    }
    // Loop: retake shared and re-check. With the members lock-frozen by the
    // caller this converges on the second pass; a concurrent strip may have
    // advanced for us in the meantime, which is equally fine.
  }
}

Status HalfJoinView::AdvanceLocked(Db* db, Csn delta_ready,
                                   ExecStats* stats) {
  // Pin before choosing the target so snapshot reads at `target` are
  // GC-protected; the old pin (at as_of_) protects the A-side until the
  // advance lands, then rotates forward.
  Db::SnapshotHandle new_pin = db->PinSnapshot();
  const Csn target = new_pin.csn();
  const Csn as_of = as_of_.load(std::memory_order_relaxed);

  Csn needed = kNullCsn;
  for (const HalfJoinSpec::Member& m : spec_.members) {
    needed = std::max(needed, db->table(m.table)->last_change_csn());
  }

  if (!built_) {
    Status s = RebuildLocked(db, target, stats);
    if (!s.ok()) return s;
  } else if (needed <= as_of) {
    // Raced fresh: another strip advanced while we waited for the unique
    // latch. Just rotate the pin forward.
  } else {
    // Telescoping advance is only sound when every member's base-delta rows
    // over (as_of, target] are published (capture caught up through
    // `needed`) and not yet pruned. Otherwise fall back to a deterministic
    // full rebuild from snapshots -- self-contained, never transient.
    bool can_advance = delta_ready >= needed;
    for (const HalfJoinSpec::Member& m : spec_.members) {
      const DeltaTable* d = db->delta(m.table);
      if (d == nullptr || d->pruned_through() > as_of) {
        can_advance = false;
        break;
      }
    }
    if (!can_advance) {
      Status s = RebuildLocked(db, target, stats);
      if (!s.ok()) return s;
    } else {
      // HJ(target) - HJ(as_of) = sum_k members<k @ as_of |><| delta_k
      //                          |><| members>k @ target. Collect every
      // stage's output before applying anything: a failed stage must leave
      // the index untouched.
      DeltaRows acc;
      if (spec_.members.size() == 1) {
        // Degenerate telescoping: HJ = sigma(residual)(member), so its
        // delta over (as_of, target] applies directly -- no join stages,
        // and critically no per-advance executor planning (that fixed cost
        // is exactly what the compiled path exists to remove). Borrow the
        // rows under a pin and copy only the ones the residual admits.
        DeltaTable::Pin dpin;
        const DeltaRowRefs refs =
            db->delta(spec_.members[0].table)
                ->ScanRefs(CsnRange{as_of, target}, &dpin);
        acc.reserve(refs.size());
        for (const DeltaRow* r : refs) {
          if (!residual_pred_.empty() && !residual_pred_.Admits(r->tuple)) {
            continue;
          }
          acc.emplace_back(r->tuple, r->count, r->ts);
        }
      } else {
        for (size_t k = 0; k < spec_.members.size(); ++k) {
          DeltaRows dk = db->delta(spec_.members[k].table)
                             ->Scan(CsnRange{as_of, target});
          if (dk.empty()) continue;
          JoinQuery q = StageQuery(k, as_of, target, &dk);
          JoinExecutor exec(db);
          Result<DeltaRows> r = exec.Execute(q, /*txn=*/nullptr, stats);
          if (!r.ok()) return r.status();
          DeltaRows out = std::move(r).value();
          acc.insert(acc.end(), std::make_move_iterator(out.begin()),
                     std::make_move_iterator(out.end()));
        }
      }
      size_t applied = ApplyLocked(std::move(acc));
      if (stats != nullptr) {
        stats->half_join_advances++;
        stats->half_join_advance_rows += applied;
      }
    }
  }

  pin_ = std::move(new_pin);
  as_of_.store(target, std::memory_order_release);
  built_ = true;
  return Status::OK();
}

Status HalfJoinView::RebuildLocked(Db* db, Csn target, ExecStats* stats) {
  index_.clear();
  rows_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);

  if (spec_.members.size() == 1) {
    // Single-member groups rebuild straight off the version store: a
    // zero-copy snapshot visit with the residual pre-compiled, so only
    // admitted tuples are ever copied. Both the executor (per-query
    // planning) and a full-table SnapshotScan copy are pure overhead here.
    const VersionedTable* vt = db->table(spec_.members[0].table);
    if (vt == nullptr) {
      return Status::NotFound("half-join member table missing");
    }
    DeltaRows rows;
    std::function<bool(const Tuple&)> pred;
    const std::function<bool(const Tuple&)>* pred_ptr = nullptr;
    if (!residual_pred_.empty()) {
      pred = [this](const Tuple& t) { return residual_pred_.Admits(t); };
      pred_ptr = &pred;
    }
    vt->ScanVisitSnapshot(
        target,
        [&rows](const Tuple& t) {
          rows.emplace_back(t, int64_t{1}, kNullCsn);
        },
        pred_ptr);
    ApplyLocked(std::move(rows));
    if (stats != nullptr) stats->half_join_rebuilds++;
    return Status::OK();
  }

  JoinQuery q;
  q.terms.reserve(spec_.members.size());
  for (const HalfJoinSpec::Member& m : spec_.members) {
    q.terms.push_back(TermSource::BaseSnapshot(m.table, target));
  }
  q.equi_joins = spec_.joins;
  q.residual = spec_.residual;
  q.sign = +1;

  JoinExecutor exec(db);
  Result<DeltaRows> r = exec.Execute(q, /*txn=*/nullptr, stats);
  if (!r.ok()) return r.status();
  ApplyLocked(std::move(r).value());
  if (stats != nullptr) stats->half_join_rebuilds++;
  return Status::OK();
}

size_t HalfJoinView::ApplyLocked(DeltaRows rows) {
  const size_t applied = rows.size();
  uint64_t nrows = rows_.load(std::memory_order_relaxed);
  uint64_t nbytes = bytes_.load(std::memory_order_relaxed);
  JoinKey key;
  for (DeltaRow& r : rows) {
    key.values.clear();
    key.values.reserve(spec_.index_cols.size());
    for (size_t c : spec_.index_cols) key.values.push_back(r.tuple[c]);

    auto it = index_.find(key);
    if (it == index_.end()) {
      if (r.count == 0) continue;
      const size_t b = TupleApproxBytes(r.tuple) + sizeof(Row);
      it = index_.emplace(key, std::vector<Row>()).first;
      it->second.push_back(Row{std::move(r.tuple), r.count});
      nrows++;
      nbytes += b;
      continue;
    }
    std::vector<Row>& bucket = it->second;
    size_t pos = bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].tuple == r.tuple) {
        pos = i;
        break;
      }
    }
    if (pos == bucket.size()) {
      if (r.count == 0) continue;
      const size_t b = TupleApproxBytes(r.tuple) + sizeof(Row);
      bucket.push_back(Row{std::move(r.tuple), r.count});
      nrows++;
      nbytes += b;
    } else {
      bucket[pos].count += r.count;
      if (bucket[pos].count == 0) {
        const size_t b = TupleApproxBytes(bucket[pos].tuple) + sizeof(Row);
        bucket[pos] = std::move(bucket.back());
        bucket.pop_back();
        if (bucket.empty()) index_.erase(it);
        nrows--;
        nbytes -= std::min<uint64_t>(nbytes, b);
      }
    }
  }
  rows_.store(nrows, std::memory_order_relaxed);
  bytes_.store(nbytes, std::memory_order_relaxed);
  return applied;
}

JoinQuery HalfJoinView::StageQuery(size_t k, Csn old_csn, Csn new_csn,
                                   const DeltaRows* delta_rows) const {
  JoinQuery q;
  q.terms.reserve(spec_.members.size());
  for (size_t j = 0; j < spec_.members.size(); ++j) {
    const TableId t = spec_.members[j].table;
    if (j < k) {
      q.terms.push_back(TermSource::BaseSnapshot(t, old_csn));
    } else if (j == k) {
      q.terms.push_back(TermSource::Rows(t, delta_rows));
    } else {
      q.terms.push_back(TermSource::BaseSnapshot(t, new_csn));
    }
  }
  q.equi_joins = spec_.joins;
  q.residual = spec_.residual;
  q.sign = +1;  // delta rows carry their own signs
  return q;
}

void HalfJoinView::Reset() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  index_.clear();
  built_ = false;
  pin_.Release();
  as_of_.store(kNullCsn, std::memory_order_release);
  rows_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// DeltaWindowIndex

DeltaWindowIndex::DeltaWindowIndex(HalfJoinSpec spec)
    : spec_(std::move(spec)), residual_pred_(CompilePred(spec_.residual)) {}

Result<DeltaWindowIndex::ProbeGuard> DeltaWindowIndex::EnsureWindow(
    Db* db, const CsnRange& range, ExecStats* stats) {
  // Bounded retry rather than HalfJoinView's unbounded loop: distinct
  // callers may legitimately want distinct windows (e.g. the two symmetric
  // programs of a self-join view), and ping-ponging forever would livelock.
  for (int attempt = 0; attempt < 4; ++attempt) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      if (built_ && window_ == range) {
        ProbeGuard g;
        g.w_ = this;
        g.lock_ = std::move(lk);
        return g;
      }
    }
    {
      std::unique_lock<std::shared_mutex> lk(mu_);
      if (!(built_ && window_ == range)) {
        Status s = AdvanceLocked(db, range, stats);
        if (!s.ok()) return s;
      }
    }
  }
  return Status::NotSupported("delta window contended across ranges");
}

Status DeltaWindowIndex::AdvanceLocked(Db* db, const CsnRange& range,
                                       ExecStats* stats) {
  const DeltaTable* d = db->delta(spec_.members[0].table);
  if (d == nullptr) {
    return Status::NotFound("delta window member has no delta table");
  }
  // Incremental move is sound only when both edges advance and the rows to
  // retire, (window_.lo, retire_hi], are still in the store; a pruned left
  // edge (or a window that moved backwards) rebuilds from the current
  // store, which is exactly what the interpreted scan would see.
  const bool monotone = built_ && range.lo >= window_.lo &&
                        range.hi >= window_.hi &&
                        d->pruned_through() <= window_.lo;
  DeltaTable::Pin pin;
  if (monotone) {
    const Csn retire_hi = std::min(range.lo, window_.hi);
    if (retire_hi > window_.lo) {
      ApplyLocked(d->ScanRefs(CsnRange{window_.lo, retire_hi}, &pin), -1);
    }
    const Csn admit_lo = std::max(window_.hi, range.lo);
    if (range.hi > admit_lo) {
      ApplyLocked(d->ScanRefs(CsnRange{admit_lo, range.hi}, &pin), +1);
    }
    if (stats != nullptr) stats->half_join_advances++;
  } else {
    index_.clear();
    rows_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    if (!range.empty()) {
      ApplyLocked(d->ScanRefs(range, &pin), +1);
    }
    if (stats != nullptr) stats->half_join_rebuilds++;
  }
  window_ = range;
  built_ = true;
  return Status::OK();
}

void DeltaWindowIndex::ApplyLocked(const DeltaRowRefs& refs, int64_t sign) {
  uint64_t nrows = rows_.load(std::memory_order_relaxed);
  uint64_t nbytes = bytes_.load(std::memory_order_relaxed);
  JoinKey key;
  for (const DeltaRow* r : refs) {
    if (!residual_pred_.empty() && !residual_pred_.Admits(r->tuple)) continue;
    const int64_t count = r->count * sign;
    if (count == 0) continue;
    key.values.clear();
    key.values.reserve(spec_.index_cols.size());
    for (size_t c : spec_.index_cols) key.values.push_back(r->tuple[c]);

    auto it = index_.find(key);
    if (it == index_.end()) {
      it = index_.emplace(key, std::vector<Row>()).first;
    }
    std::vector<Row>& bucket = it->second;
    size_t pos = bucket.size();
    for (size_t i = 0; i < bucket.size(); ++i) {
      // (tuple, ts) identifies a delta row: the min-timestamp rule makes
      // rows with equal tuples but different timestamps non-mergeable.
      if (bucket[i].ts == r->ts && bucket[i].tuple == r->tuple) {
        pos = i;
        break;
      }
    }
    if (pos == bucket.size()) {
      const size_t b = TupleApproxBytes(r->tuple) + sizeof(Row);
      bucket.push_back(Row{r->tuple, count, r->ts});
      nrows++;
      nbytes += b;
    } else {
      bucket[pos].count += count;
      if (bucket[pos].count == 0) {
        const size_t b = TupleApproxBytes(bucket[pos].tuple) + sizeof(Row);
        bucket[pos] = std::move(bucket.back());
        bucket.pop_back();
        if (bucket.empty()) index_.erase(it);
        nrows--;
        nbytes -= std::min<uint64_t>(nbytes, b);
      }
    }
  }
  rows_.store(nrows, std::memory_order_relaxed);
  bytes_.store(nbytes, std::memory_order_relaxed);
}

void DeltaWindowIndex::Reset() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  index_.clear();
  built_ = false;
  window_ = CsnRange{kNullCsn, kNullCsn};
  rows_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// ViewPrograms -- compilation

namespace {

// Union-find over member slots.
size_t UfFind(std::vector<size_t>& parent, size_t x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

struct TermLayout {
  std::vector<size_t> widths;   // per original term
  std::vector<size_t> offsets;  // concat offset per original term
  size_t total = 0;

  // Owning term of a concat column index.
  size_t OwnerOf(size_t concat_col) const {
    size_t t = 0;
    while (t + 1 < offsets.size() && offsets[t + 1] <= concat_col) ++t;
    return t;
  }
};

}  // namespace

std::shared_ptr<ViewPrograms> ViewPrograms::Compile(
    Db* db, const std::vector<TableId>& tables,
    const std::vector<EquiJoin>& joins, const ExprPtr& selection,
    const std::vector<size_t>& projection, std::string owner_name) {
  auto vp = std::shared_ptr<ViewPrograms>(new ViewPrograms());
  vp->db_ = db;
  vp->owner_ = std::move(owner_name);
  vp->tables_ = tables;

  const size_t n = tables.size();
  TermLayout layout;
  layout.widths.resize(n);
  layout.offsets.resize(n);
  vp->table_names_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const VersionedTable* t = db->table(tables[i]);
    layout.widths[i] = t->schema().num_columns();
    layout.offsets[i] = layout.total;
    layout.total += layout.widths[i];
    vp->table_names_[i] = t->name();
  }

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(selection, &conjuncts);

  vp->programs_.resize(n);
  vp->reasons_.resize(n);
  std::unordered_map<std::string, size_t> hj_by_key;

  for (size_t i = 0; i < n; ++i) {
    // ---- Other-terms grouping: connected components of the join graph
    // restricted to terms != i.
    std::vector<size_t> members;  // original term indexes, ascending
    for (size_t j = 0; j < n; ++j) {
      if (j != i) members.push_back(j);
    }
    std::vector<size_t> member_pos(n, SIZE_MAX);  // term -> slot in members
    for (size_t s = 0; s < members.size(); ++s) member_pos[members[s]] = s;

    std::vector<size_t> parent(members.size());
    std::iota(parent.begin(), parent.end(), 0);
    for (const EquiJoin& ej : joins) {
      if (ej.left_term == i || ej.right_term == i) continue;
      size_t a = UfFind(parent, member_pos[ej.left_term]);
      size_t b = UfFind(parent, member_pos[ej.right_term]);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
    // Groups keyed by root slot; roots ascend with their minimum member, so
    // iterating members in order yields groups sorted by smallest member.
    std::vector<std::vector<size_t>> group_terms;  // original term indexes
    std::vector<size_t> root_to_group(members.size(), SIZE_MAX);
    std::vector<size_t> term_to_group(n, SIZE_MAX);
    for (size_t s = 0; s < members.size(); ++s) {
      size_t root = UfFind(parent, s);
      if (root_to_group[root] == SIZE_MAX) {
        root_to_group[root] = group_terms.size();
        group_terms.emplace_back();
      }
      group_terms[root_to_group[root]].push_back(members[s]);
      term_to_group[members[s]] = root_to_group[root];
    }
    const size_t ng = group_terms.size();

    // Per-group layout: member slot within group, group-concat offsets.
    std::vector<std::vector<size_t>> group_offsets(ng);  // aligned w/ terms
    std::vector<size_t> term_group_slot(n, SIZE_MAX);
    std::vector<size_t> term_group_offset(n, SIZE_MAX);
    for (size_t g = 0; g < ng; ++g) {
      size_t off = 0;
      for (size_t s = 0; s < group_terms[g].size(); ++s) {
        size_t t = group_terms[g][s];
        term_group_slot[t] = s;
        term_group_offset[t] = off;
        group_offsets[g].push_back(off);
        off += layout.widths[t];
      }
    }

    auto program = std::make_unique<DeltaProgram>();
    program->delta_term = i;
    std::vector<HalfJoinSpec> specs(ng);
    std::vector<std::vector<size_t>> probe_delta_cols(ng);
    for (size_t g = 0; g < ng; ++g) {
      for (size_t t : group_terms[g]) {
        specs[g].members.push_back(
            HalfJoinSpec::Member{tables[t], layout.widths[t]});
      }
    }

    // ---- Classify equi-joins.
    for (const EquiJoin& ej : joins) {
      const bool l_delta = ej.left_term == i;
      const bool r_delta = ej.right_term == i;
      if (l_delta && r_delta) {
        // Self equi-join on the delta tuple.
        DeltaProgram::Check c;
        c.a_src = 0;
        c.a_col = static_cast<uint32_t>(ej.left_col);
        c.op = Expr::CmpOp::kEq;
        c.b_src = 0;
        c.b_col = static_cast<uint32_t>(ej.right_col);
        c.null_eq = true;
        program->delta_checks.push_back(c);
      } else if (l_delta || r_delta) {
        const size_t d_col = l_delta ? ej.left_col : ej.right_col;
        const size_t o_term = l_delta ? ej.right_term : ej.left_term;
        const size_t o_col = l_delta ? ej.right_col : ej.left_col;
        const size_t g = term_to_group[o_term];
        probe_delta_cols[g].push_back(d_col);
        specs[g].index_cols.push_back(term_group_offset[o_term] + o_col);
      } else {
        // Internal to one group by construction of the components.
        const size_t g = term_to_group[ej.left_term];
        EquiJoin local;
        local.left_term = term_group_slot[ej.left_term];
        local.left_col = ej.left_col;
        local.right_term = term_group_slot[ej.right_term];
        local.right_col = ej.right_col;
        specs[g].joins.push_back(local);
      }
    }

    // ---- Classify selection conjuncts.
    std::string reason;
    for (const ExprPtr& c : conjuncts) {
      std::vector<size_t> cols;
      CollectColumns(c, &cols);
      bool all_delta = true;
      size_t sole_group = SIZE_MAX;
      bool one_group = !cols.empty();
      for (size_t col : cols) {
        const size_t t = layout.OwnerOf(col);
        if (t != i) all_delta = false;
        const size_t g = (t == i) ? SIZE_MAX : term_to_group[t];
        if (g == SIZE_MAX) {
          one_group = false;
        } else if (sole_group == SIZE_MAX) {
          sole_group = g;
        } else if (sole_group != g) {
          one_group = false;
        }
      }

      if (all_delta) {
        // Delta-local: remap to the delta term's schema, then flatten.
        std::vector<int64_t> map(layout.total, -1);
        for (size_t k = 0; k < layout.widths[i]; ++k) {
          map[layout.offsets[i] + k] = static_cast<int64_t>(k);
        }
        ExprPtr local = RemapColumns(c, map);
        if (local == nullptr) {
          reason = "delta-local conjunct references a foreign column";
          break;
        }
        CompiledPred cp = CompilePred(local);
        if (cp.rest != nullptr) {
          // Column-vs-column over the delta tuple flattens into a check;
          // anything deeper stays interpreted.
          if (cp.rest->kind() == Expr::Kind::kCompare &&
              cp.rest->lhs()->kind() == Expr::Kind::kColumn &&
              cp.rest->rhs()->kind() == Expr::Kind::kColumn) {
            DeltaProgram::Check chk;
            chk.a_src = 0;
            chk.a_col = static_cast<uint32_t>(cp.rest->lhs()->column_index());
            chk.op = cp.rest->cmp_op();
            chk.b_src = 0;
            chk.b_col = static_cast<uint32_t>(cp.rest->rhs()->column_index());
            program->delta_checks.push_back(chk);
          } else {
            reason = "non-flat delta-local conjunct: " + cp.rest->ToString();
            break;
          }
        }
        for (CompiledPred::Simple& s : cp.simple) {
          program->delta_pred.simple.push_back(std::move(s));
        }
      } else if (one_group) {
        // Intra-group: push into the half-join residual (group-concat
        // space). Build-time only, so arbitrary Expr shapes are fine.
        std::vector<int64_t> map(layout.total, -1);
        for (size_t t : group_terms[sole_group]) {
          for (size_t k = 0; k < layout.widths[t]; ++k) {
            map[layout.offsets[t] + k] =
                static_cast<int64_t>(term_group_offset[t] + k);
          }
        }
        ExprPtr grouped = RemapColumns(c, map);
        if (grouped == nullptr) {
          reason = "intra-group conjunct references a foreign column";
          break;
        }
        specs[sole_group].residual =
            AndTogether(std::move(specs[sole_group].residual),
                        std::move(grouped));
      } else {
        // Spans the delta term and/or several groups: must flatten to one
        // comparison over (source, column) addresses.
        if (c->kind() != Expr::Kind::kCompare) {
          reason = "non-flat cross-term conjunct: " + c->ToString();
          break;
        }
        auto side = [&](const ExprPtr& e, uint8_t* src, uint32_t* col,
                        bool* is_lit, Value* lit) -> bool {
          if (e->kind() == Expr::Kind::kLiteral) {
            *is_lit = true;
            *lit = e->literal();
            return true;
          }
          if (e->kind() != Expr::Kind::kColumn) return false;
          *is_lit = false;
          const size_t concat = e->column_index();
          const size_t t = layout.OwnerOf(concat);
          const size_t local = concat - layout.offsets[t];
          if (t == i) {
            *src = 0;
            *col = static_cast<uint32_t>(local);
          } else {
            *src = static_cast<uint8_t>(1 + term_to_group[t]);
            *col = static_cast<uint32_t>(term_group_offset[t] + local);
          }
          return true;
        };
        uint8_t a_src = 0, b_src = 0;
        uint32_t a_col = 0, b_col = 0;
        bool a_lit = false, b_lit = false;
        Value a_val, b_val;
        if (!side(c->lhs(), &a_src, &a_col, &a_lit, &a_val) ||
            !side(c->rhs(), &b_src, &b_col, &b_lit, &b_val) ||
            (a_lit && b_lit)) {
          reason = "non-flat cross-term conjunct: " + c->ToString();
          break;
        }
        DeltaProgram::Check chk;
        if (a_lit) {
          // Literal-vs-column: mirror so the column drives.
          chk.a_src = b_src;
          chk.a_col = b_col;
          chk.op = MirrorCmp(c->cmp_op());
          chk.vs_literal = true;
          chk.literal = a_val;
        } else {
          chk.a_src = a_src;
          chk.a_col = a_col;
          chk.op = c->cmp_op();
          chk.vs_literal = b_lit;
          if (b_lit) {
            chk.literal = b_val;
          } else {
            chk.b_src = b_src;
            chk.b_col = b_col;
          }
        }
        program->cross_checks.push_back(chk);
      }
    }

    if (!reason.empty()) {
      vp->reasons_[i] = reason;
      continue;  // programs_[i] stays null -> interpreted
    }

    // ---- Projection in (source, column) addresses.
    std::vector<size_t> out_cols = projection;
    if (out_cols.empty()) {
      out_cols.resize(layout.total);
      std::iota(out_cols.begin(), out_cols.end(), 0);
    }
    for (size_t concat : out_cols) {
      const size_t t = layout.OwnerOf(concat);
      const size_t local = concat - layout.offsets[t];
      DeltaProgram::OutCol oc;
      if (t == i) {
        oc.src = 0;
        oc.col = static_cast<uint32_t>(local);
      } else {
        oc.src = static_cast<uint8_t>(1 + term_to_group[t]);
        oc.col = static_cast<uint32_t>(term_group_offset[t] + local);
      }
      program->projection.push_back(oc);
    }

    // ---- Instantiate (or share) the half-join views.
    for (size_t g = 0; g < ng; ++g) {
      const std::string key = specs[g].CanonicalKey();
      auto it = hj_by_key.find(key);
      std::shared_ptr<HalfJoinView> hj;
      if (it != hj_by_key.end()) {
        hj = vp->half_joins_[it->second];
      } else {
        std::vector<std::string> names;
        for (size_t t : group_terms[g]) names.push_back(vp->table_names_[t]);
        hj = std::make_shared<HalfJoinView>(std::move(specs[g]),
                                            std::move(names));
        hj_by_key.emplace(key, vp->half_joins_.size());
        vp->half_joins_.push_back(hj);
      }
      DeltaProgram::GroupProbe probe;
      probe.hj = std::move(hj);
      probe.delta_cols = std::move(probe_delta_cols[g]);
      if (n == 2) {
        // Two-term views: the program's single other-term group doubles as
        // the compensation probe target, applied to the other term's DELTA
        // rows over an advancing window. Not shared across programs -- a
        // self-join view's two programs track different window ranges.
        probe.window = std::make_shared<DeltaWindowIndex>(probe.hj->spec());
      }
      program->groups.push_back(std::move(probe));
    }

    vp->programs_[i] = std::move(program);
  }
  return vp;
}

// --------------------------------------------------------------------------
// ViewPrograms -- execution

size_t ViewPrograms::num_compiled() const {
  size_t n = 0;
  for (const auto& p : programs_) {
    if (p != nullptr) ++n;
  }
  return n;
}

Csn ViewPrograms::RequiredDeltaReady(size_t delta_term) const {
  if (!compiled(delta_term)) return kNullCsn;
  Csn needed = kNullCsn;
  for (const DeltaProgram::GroupProbe& gp : programs_[delta_term]->groups) {
    for (const HalfJoinSpec::Member& m : gp.hj->spec().members) {
      needed = std::max(needed, db_->table(m.table)->last_change_csn());
    }
  }
  return needed;
}

Result<DeltaRows> ViewPrograms::ExecuteForward(size_t delta_term,
                                               const DeltaRowRefs& delta_rows,
                                               int64_t sign, Csn delta_ready,
                                               ExecStats* stats) {
  if (!compiled(delta_term)) {
    return Status::NotSupported("term " + std::to_string(delta_term) +
                                " of " + owner_ + " is not compiled");
  }
  const uint64_t t0 = NowNanos();
  const DeltaProgram& p = *programs_[delta_term];
  ExecStats local;
  local.queries = 1;
  local.compiled_queries = 1;

  // Freshen every group's half-join view up front; the guards keep the
  // indexes latched (shared) for the whole probe loop.
  const size_t ng = p.groups.size();
  std::vector<HalfJoinView::ProbeGuard> guards;
  guards.reserve(ng);
  for (const DeltaProgram::GroupProbe& gp : p.groups) {
    Result<HalfJoinView::ProbeGuard> g =
        gp.hj->EnsureFresh(db_, delta_ready, &local);
    if (!g.ok()) return g.status();
    guards.push_back(std::move(g).value());
  }

  DeltaRows out;
  JoinKey key;
  std::vector<const std::vector<HalfJoinView::Row>*> lists(ng);
  std::vector<size_t> cursor(ng);
  std::vector<const Tuple*> match(ng);
  for (const DeltaRow* dr : delta_rows) {
    local.input_rows++;
    local.compiled_probe_rows++;
    const Tuple& d = dr->tuple;
    if (!p.delta_pred.empty() && !p.delta_pred.Admits(d)) continue;
    bool admitted = true;
    for (const DeltaProgram::Check& c : p.delta_checks) {
      if (!PassesCheck(c, d, match)) {
        admitted = false;
        break;
      }
    }
    if (!admitted) continue;

    // Probe each group's hash index.
    bool miss = false;
    for (size_t g = 0; g < ng; ++g) {
      key.values.clear();
      const std::vector<size_t>& dc = p.groups[g].delta_cols;
      key.values.reserve(dc.size());
      for (size_t c : dc) key.values.push_back(d[c]);
      lists[g] = guards[g].Lookup(key);
      if (lists[g] == nullptr || lists[g]->empty()) {
        local.half_join_misses++;
        miss = true;
        break;
      }
      local.half_join_hits++;
    }
    if (miss) continue;

    // Odometer over the match lists (runs exactly once when ng == 0).
    std::fill(cursor.begin(), cursor.end(), 0);
    for (;;) {
      int64_t count = dr->count * sign;
      for (size_t g = 0; g < ng; ++g) {
        const HalfJoinView::Row& m = (*lists[g])[cursor[g]];
        match[g] = &m.tuple;
        count *= m.count;
      }
      local.compiled_kernel_evals++;
      bool pass = count != 0;
      if (pass) {
        for (const DeltaProgram::Check& c : p.cross_checks) {
          if (!PassesCheck(c, d, match)) {
            pass = false;
            break;
          }
        }
      }
      if (pass) {
        Tuple t;
        t.reserve(p.projection.size());
        for (const DeltaProgram::OutCol& oc : p.projection) {
          t.push_back(oc.src == 0 ? d[oc.col]
                                  : (*match[oc.src - 1])[oc.col]);
        }
        out.emplace_back(std::move(t), count, dr->ts);
        local.output_rows++;
      }
      // Advance the odometer.
      size_t g = 0;
      for (; g < ng; ++g) {
        if (++cursor[g] < lists[g]->size()) break;
        cursor[g] = 0;
      }
      if (g == ng) break;
    }
  }

  local.exec_nanos += NowNanos() - t0;
  if (stats != nullptr) stats->Add(local);
  return out;
}

Result<DeltaRows> ViewPrograms::ExecuteCompensation(
    size_t delta_term, const DeltaRowRefs& delta_rows, size_t other_term,
    const CsnRange& other_range, int64_t sign, ExecStats* stats) {
  if (!compiled(delta_term)) {
    return Status::NotSupported("term " + std::to_string(delta_term) +
                                " of " + owner_ + " is not compiled");
  }
  const DeltaProgram& p = *programs_[delta_term];
  if (p.groups.size() != 1 || p.groups[0].window == nullptr ||
      other_term >= tables_.size() ||
      p.groups[0].hj->spec().members[0].table != tables_[other_term]) {
    return Status::NotSupported("compensation shape of " + owner_ +
                                " is not compiled");
  }
  const uint64_t t0 = NowNanos();
  ExecStats local;
  local.queries = 1;
  local.compiled_queries = 1;

  Result<DeltaWindowIndex::ProbeGuard> g =
      p.groups[0].window->EnsureWindow(db_, other_range, &local);
  if (!g.ok()) return g.status();
  const DeltaWindowIndex::ProbeGuard& guard = g.value();

  DeltaRows out;
  JoinKey key;
  std::vector<const Tuple*> match(1);
  for (const DeltaRow* dr : delta_rows) {
    local.input_rows++;
    local.compiled_probe_rows++;
    const Tuple& d = dr->tuple;
    if (!p.delta_pred.empty() && !p.delta_pred.Admits(d)) continue;
    bool admitted = true;
    for (const DeltaProgram::Check& c : p.delta_checks) {
      if (!PassesCheck(c, d, match)) {
        admitted = false;
        break;
      }
    }
    if (!admitted) continue;

    key.values.clear();
    const std::vector<size_t>& dc = p.groups[0].delta_cols;
    key.values.reserve(dc.size());
    for (size_t c : dc) key.values.push_back(d[c]);
    const std::vector<DeltaWindowIndex::Row>* list = guard.Lookup(key);
    if (list == nullptr || list->empty()) {
      local.half_join_misses++;
      continue;
    }
    local.half_join_hits++;

    const int64_t base_count = dr->count * sign;
    for (const DeltaWindowIndex::Row& w : *list) {
      local.compiled_kernel_evals++;
      const int64_t count = base_count * w.count;
      if (count == 0) continue;
      match[0] = &w.tuple;
      bool pass = true;
      for (const DeltaProgram::Check& c : p.cross_checks) {
        if (!PassesCheck(c, d, match)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      Tuple t;
      t.reserve(p.projection.size());
      for (const DeltaProgram::OutCol& oc : p.projection) {
        t.push_back(oc.src == 0 ? d[oc.col] : (*match[0])[oc.col]);
      }
      // The executor's combination rules for delta-delta joins: counts
      // multiply, timestamps take the min (null absorbs).
      out.emplace_back(std::move(t), count, MinTimestamp(dr->ts, w.ts));
      local.output_rows++;
    }
  }

  local.exec_nanos += NowNanos() - t0;
  if (stats != nullptr) stats->Add(local);
  return out;
}

void ViewPrograms::Reset() {
  for (const std::shared_ptr<HalfJoinView>& hj : half_joins_) hj->Reset();
  for (const auto& p : programs_) {
    if (p == nullptr) continue;
    for (const DeltaProgram::GroupProbe& gp : p->groups) {
      if (gp.window != nullptr) gp.window->Reset();
    }
  }
}

uint64_t ViewPrograms::half_join_rows() const {
  uint64_t n = 0;
  for (const auto& hj : half_joins_) n += hj->resident_rows();
  for (const auto& p : programs_) {
    if (p == nullptr) continue;
    for (const DeltaProgram::GroupProbe& gp : p->groups) {
      if (gp.window != nullptr) n += gp.window->resident_rows();
    }
  }
  return n;
}

uint64_t ViewPrograms::half_join_bytes() const {
  uint64_t n = 0;
  for (const auto& hj : half_joins_) n += hj->resident_bytes();
  for (const auto& p : programs_) {
    if (p == nullptr) continue;
    for (const DeltaProgram::GroupProbe& gp : p->groups) {
      if (gp.window != nullptr) n += gp.window->resident_bytes();
    }
  }
  return n;
}

// --------------------------------------------------------------------------
// ViewPrograms -- dump

std::string ViewPrograms::Dump() const {
  std::ostringstream os;
  os << "== compiled delta programs: " << owner_ << " ==\n";

  // Map half-join pointers back to their slot for stable references.
  std::unordered_map<const HalfJoinView*, size_t> hj_slot;
  for (size_t h = 0; h < half_joins_.size(); ++h) {
    hj_slot[half_joins_[h].get()] = h;
  }

  for (size_t h = 0; h < half_joins_.size(); ++h) {
    const HalfJoinView& hj = *half_joins_[h];
    const HalfJoinSpec& spec = hj.spec();
    os << "half_join[" << h << "]: members=[";
    for (size_t m = 0; m < hj.member_names().size(); ++m) {
      if (m) os << " ";
      os << hj.member_names()[m];
    }
    os << "] joins=[";
    for (size_t j = 0; j < spec.joins.size(); ++j) {
      if (j) os << " ";
      os << "m" << spec.joins[j].left_term << ".c" << spec.joins[j].left_col
         << "=m" << spec.joins[j].right_term << ".c"
         << spec.joins[j].right_col;
    }
    os << "] key=[";
    for (size_t k = 0; k < spec.index_cols.size(); ++k) {
      if (k) os << " ";
      os << "c" << spec.index_cols[k];
    }
    os << "] residual="
       << (spec.residual ? spec.residual->ToString() : "(none)") << "\n";
  }

  auto addr = [](uint8_t src, uint32_t col) {
    std::ostringstream a;
    if (src == 0) {
      a << "d.c" << col;
    } else {
      a << "g" << (src - 1) << ".c" << col;
    }
    return a.str();
  };
  auto check_str = [&](const DeltaProgram::Check& c) {
    std::ostringstream a;
    a << addr(c.a_src, c.a_col) << " " << CmpOpStr(c.op) << " ";
    if (c.vs_literal) {
      a << Expr::Literal(c.literal)->ToString();
    } else {
      a << addr(c.b_src, c.b_col);
    }
    if (c.null_eq) a << " [null_eq]";
    return a.str();
  };

  for (size_t i = 0; i < programs_.size(); ++i) {
    os << "program[" << i << "]: delta=" << table_names_[i] << "\n";
    if (programs_[i] == nullptr) {
      os << "  status: interpreted (" << reasons_[i] << ")\n";
      continue;
    }
    const DeltaProgram& p = *programs_[i];
    os << "  status: compiled\n";
    os << "  delta_pred:";
    if (p.delta_pred.simple.empty()) {
      os << " (none)";
    } else {
      for (size_t s = 0; s < p.delta_pred.simple.size(); ++s) {
        const CompiledPred::Simple& sp = p.delta_pred.simple[s];
        os << (s ? " AND " : " ")
           << Expr::Compare(sp.op, Expr::Column(sp.col),
                            Expr::Literal(sp.lit))
                  ->ToString();
      }
    }
    os << "\n  delta_checks:";
    if (p.delta_checks.empty()) {
      os << " (none)";
    } else {
      for (size_t c = 0; c < p.delta_checks.size(); ++c) {
        os << (c ? " AND " : " ") << check_str(p.delta_checks[c]);
      }
    }
    os << "\n";
    for (size_t g = 0; g < p.groups.size(); ++g) {
      os << "  probe: g" << g << " <- half_join["
         << hj_slot.at(p.groups[g].hj.get()) << "] on d(";
      for (size_t c = 0; c < p.groups[g].delta_cols.size(); ++c) {
        if (c) os << " ";
        os << "c" << p.groups[g].delta_cols[c];
      }
      os << ")\n";
    }
    os << "  cross_checks:";
    if (p.cross_checks.empty()) {
      os << " (none)";
    } else {
      for (size_t c = 0; c < p.cross_checks.size(); ++c) {
        os << (c ? " AND " : " ") << check_str(p.cross_checks[c]);
      }
    }
    os << "\n  project:";
    for (const DeltaProgram::OutCol& oc : p.projection) {
      os << " " << addr(oc.src, oc.col);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rollview
