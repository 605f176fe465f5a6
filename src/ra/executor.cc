#include "ra/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/csn.h"
#include "ra/compiled_pred.h"

namespace rollview {

namespace {

constexpr uint32_t kUnbound = std::numeric_limits<uint32_t>::max();

// One input row as seen by the join: a tuple reference (borrowed from the
// caller's DeltaRows or owned by the executor's spill) plus its delta
// count/timestamp (+1 / null for base rows).
struct ArenaRow {
  const Tuple* tuple = nullptr;
  int64_t count = 1;
  Csn ts = kNullCsn;
};

// Per-term input rows; partial rows reference them by slot.
struct TermArena {
  std::vector<ArenaRow> rows;

  size_t size() const { return rows.size(); }
  const Tuple& tuple(uint32_t s) const { return *rows[s].tuple; }
  int64_t count(uint32_t s) const { return rows[s].count; }
  Csn ts(uint32_t s) const { return rows[s].ts; }
};

// Partially-joined rows, struct-of-arrays: one flat uint32 slab row of
// width n (slot per term, kUnbound if unbound) plus parallel count and
// timestamp columns. Extending a row appends one slab row -- no per-level
// std::vector copy.
class PartialSet {
 public:
  explicit PartialSet(size_t width) : width_(width) {}

  size_t size() const { return counts_.size(); }
  const uint32_t* slots(size_t r) const { return slots_.data() + r * width_; }
  int64_t count(size_t r) const { return counts_[r]; }
  Csn ts(size_t r) const { return tss_[r]; }

  void AppendRoot(size_t term, uint32_t s, int64_t count, Csn ts) {
    size_t base = slots_.size();
    slots_.resize(base + width_, kUnbound);
    slots_[base + term] = s;
    counts_.push_back(count);
    tss_.push_back(ts);
  }

  // Copies src row r, binds `term` to slot `s`, and folds in the joined
  // row's count (product) and timestamp (min rule).
  void AppendExtended(const PartialSet& src, size_t r, size_t term, uint32_t s,
                      int64_t count, Csn ts) {
    const uint32_t* from = src.slots(r);
    size_t base = slots_.size();
    slots_.insert(slots_.end(), from, from + width_);
    slots_[base + term] = s;
    counts_.push_back(src.count(r) * count);
    tss_.push_back(MinTimestamp(src.ts(r), ts));
  }

 private:
  size_t width_;
  std::vector<uint32_t> slots_;
  std::vector<int64_t> counts_;
  std::vector<Csn> tss_;
};

}  // namespace

Result<DeltaRows> JoinExecutor::Execute(const JoinQuery& query, Txn* txn,
                                        ExecStats* stats) {
  const size_t n = query.terms.size();
  if (n == 0) return Status::InvalidArgument("join query has no terms");

  ExecStats local;
  local.queries = 1;
  const auto exec_start = std::chrono::steady_clock::now();

  // Resolve table metadata and lock current-state terms up front so the
  // whole query sees one consistent state (strict 2PL holds the locks to
  // commit).
  std::vector<VersionedTable*> tables(n, nullptr);
  std::vector<size_t> widths(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const TermSource& t = query.terms[i];
    VersionedTable* vt = db_->table(t.table);
    if (vt == nullptr) return Status::NotFound("join term table not found");
    tables[i] = vt;
    widths[i] = vt->schema().num_columns();
    if (t.kind == TermSource::Kind::kBaseCurrent) {
      if (txn == nullptr) {
        return Status::InvalidArgument(
            "current-state term requires a transaction");
      }
      ROLLVIEW_RETURN_NOT_OK(db_->LockTableShared(txn, t.table));
    } else if (t.kind == TermSource::Kind::kBaseSnapshot) {
      if (t.snapshot_csn > db_->stable_csn()) {
        return Status::OutOfRange("snapshot term beyond stable csn");
      }
    } else if (t.rows == nullptr && t.row_refs == nullptr) {
      return Status::InvalidArgument("kRows term with null rows");
    }
  }

  // Selection pushdown: conjuncts of the residual whose column references
  // fall inside a single term's slice run against that term's rows before
  // the join (shifted to the term's local column space); the rest stays as
  // the post-join residual.
  std::vector<size_t> offsets(n, 0);
  for (size_t i = 1; i < n; ++i) offsets[i] = offsets[i - 1] + widths[i - 1];
  std::vector<ExprPtr> term_pred(n);
  ExprPtr residual;
  {
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(query.residual, &conjuncts);
    for (ExprPtr& c : conjuncts) {
      size_t lo = c->MinColumnIndex();
      size_t hi = c->MaxColumnIndex();
      bool pushed = false;
      if (lo != SIZE_MAX) {
        for (size_t i = 0; i < n; ++i) {
          if (lo >= offsets[i] && hi < offsets[i] + widths[i]) {
            term_pred[i] = AndTogether(std::move(term_pred[i]),
                                       c->ShiftColumns(offsets[i]));
            pushed = true;
            break;
          }
        }
      }
      if (!pushed) residual = AndTogether(std::move(residual), std::move(c));
    }
  }
  // Flatten each term's pushed predicate once; Admits() then runs without
  // touching the Expr tree for the common column-vs-literal conjuncts.
  std::vector<CompiledPred> term_filter(n);
  for (size_t i = 0; i < n; ++i) term_filter[i] = CompilePred(term_pred[i]);

  // Arenas hold every input row per term; partial rows reference arena
  // slots. The spill owns tuples that must be copied (probe and scan
  // results); a deque keeps their addresses stable under growth.
  std::vector<TermArena> arena(n);
  std::vector<bool> bound(n, false);
  std::vector<bool> materialized(n, false);
  std::deque<Tuple> spill;

  auto copy_into_spill = [&](const Tuple& t) -> const Tuple* {
    local.rows_copied++;
    local.bytes_copied += TupleApproxBytes(t);
    spill.push_back(t);
    return &spill.back();
  };
  auto note_borrow = [&](const Tuple& t) {
    local.rows_borrowed++;
    local.bytes_borrowed += TupleApproxBytes(t);
  };

  // True if the term-local predicate (if any) admits the tuple.
  auto admits = [&](size_t i, const Tuple& t) {
    if (term_filter[i].empty() || term_filter[i].Admits(t)) return true;
    local.pushdown_filtered++;
    return false;
  };

  auto materialize = [&](size_t i) -> Status {
    if (materialized[i]) return Status::OK();
    materialized[i] = true;
    const TermSource& t = query.terms[i];
    if (t.kind == TermSource::Kind::kRows) {
      // Borrow delta tuples in place; the caller owns them (and, for the
      // refs variant, keeps the underlying store pinned) for the whole
      // execution.
      if (t.row_refs != nullptr) {
        local.input_rows += t.row_refs->size();
        arena[i].rows.reserve(t.row_refs->size());
        for (const DeltaRow* r : *t.row_refs) {
          if (!admits(i, r->tuple)) continue;
          note_borrow(r->tuple);
          arena[i].rows.push_back(ArenaRow{&r->tuple, r->count, r->ts});
        }
        return Status::OK();
      }
      local.input_rows += t.rows->size();
      arena[i].rows.reserve(t.rows->size());
      for (const DeltaRow& r : *t.rows) {
        if (!admits(i, r.tuple)) continue;
        note_borrow(r.tuple);
        arena[i].rows.push_back(ArenaRow{&r.tuple, r.count, r.ts});
      }
      return Status::OK();
    }
    // Base scan: copy admitted rows into the spill.
    auto visit = [&](const Tuple& tp) {
      local.input_rows++;
      if (!admits(i, tp)) return;
      arena[i].rows.push_back(ArenaRow{copy_into_spill(tp), 1, kNullCsn});
    };
    if (t.kind == TermSource::Kind::kBaseCurrent) {
      tables[i]->ScanVisitCurrent(txn->id(), visit);
    } else {
      tables[i]->ScanVisitSnapshot(t.snapshot_csn, visit);
    }
    return Status::OK();
  };

  // Pick the start term among kRows terms by *admitted* (post-pushdown)
  // size -- materializing them is cheap (borrowed references), and raw size
  // misranks a heavily-filtered large delta against a small unfiltered one.
  // Propagation queries always have a kRows term; otherwise start at 0.
  size_t start = SIZE_MAX;
  size_t start_size = SIZE_MAX;
  for (size_t i = 0; i < n; ++i) {
    if (query.terms[i].kind != TermSource::Kind::kRows) continue;
    ROLLVIEW_RETURN_NOT_OK(materialize(i));
    if (arena[i].size() < start_size) {
      start = i;
      start_size = arena[i].size();
    }
  }
  if (start == SIZE_MAX) start = 0;
  ROLLVIEW_RETURN_NOT_OK(materialize(start));
  bound[start] = true;

  PartialSet current(n);
  for (size_t s = 0; s < arena[start].size(); ++s) {
    uint32_t slot = static_cast<uint32_t>(s);
    current.AppendRoot(start, slot, arena[start].count(slot),
                       arena[start].ts(slot));
  }

  size_t num_bound = 1;
  std::vector<bool> pred_used(query.equi_joins.size(), false);

  enum class Mode { kProbe, kHashJoin, kCartesian };
  // A predicate connecting the bound set to the candidate term:
  // (equi_joins index, bound term, bound col, candidate col).
  struct Conn {
    size_t pred;
    size_t bt;
    size_t bc;
    size_t nc;
  };

  while (num_bound < n && current.size() > 0) {
    size_t next = SIZE_MAX;
    Mode mode = Mode::kCartesian;
    std::vector<Conn> connecting;
    size_t probe_conn = SIZE_MAX;  // index into `connecting` for kProbe

    auto gather = [&](size_t cand) {
      connecting.clear();
      for (size_t p = 0; p < query.equi_joins.size(); ++p) {
        const EquiJoin& ej = query.equi_joins[p];
        if (ej.left_term == cand && bound[ej.right_term]) {
          connecting.push_back(Conn{p, ej.right_term, ej.right_col,
                                    ej.left_col});
        } else if (ej.right_term == cand && bound[ej.left_term]) {
          connecting.push_back(Conn{p, ej.left_term, ej.left_col,
                                    ej.right_col});
        }
      }
    };

    // First pass: base candidates reachable through a hash-indexed join
    // column (probe-able).
    for (size_t cand = 0; cand < n && next == SIZE_MAX; ++cand) {
      if (bound[cand]) continue;
      if (query.terms[cand].kind == TermSource::Kind::kRows) continue;
      gather(cand);
      const std::vector<size_t>& idx = tables[cand]->indexed_columns();
      for (size_t ci = 0; ci < connecting.size(); ++ci) {
        if (std::find(idx.begin(), idx.end(), connecting[ci].nc) !=
            idx.end()) {
          next = cand;
          probe_conn = ci;
          break;
        }
      }
    }
    if (next != SIZE_MAX) {
      mode = Mode::kProbe;
    } else {
      // Second pass: any connected candidate (hash join).
      for (size_t cand = 0; cand < n && next == SIZE_MAX; ++cand) {
        if (bound[cand]) continue;
        gather(cand);
        if (!connecting.empty()) {
          next = cand;
          mode = Mode::kHashJoin;
        }
      }
    }
    if (next == SIZE_MAX) {
      // Cartesian fallback: first unbound term.
      for (size_t cand = 0; cand < n; ++cand) {
        if (!bound[cand]) {
          next = cand;
          break;
        }
      }
      gather(next);  // leaves `connecting` empty by construction
      mode = Mode::kCartesian;
    }

    // Hoist the residual equi-join predicates that become checkable at this
    // level (both sides bound once `next` binds, not already consumed, not
    // satisfied by the join itself) -- computed once per level, not per row.
    std::vector<const EquiJoin*> check_preds;
    {
      std::vector<bool> satisfied(query.equi_joins.size(), false);
      if (mode == Mode::kProbe) {
        satisfied[connecting[probe_conn].pred] = true;
      } else if (mode == Mode::kHashJoin) {
        for (const Conn& c : connecting) satisfied[c.pred] = true;
      }
      for (size_t p = 0; p < query.equi_joins.size(); ++p) {
        if (pred_used[p] || satisfied[p]) continue;
        const EquiJoin& ej = query.equi_joins[p];
        bool l_ok = bound[ej.left_term] || ej.left_term == next;
        bool r_ok = bound[ej.right_term] || ej.right_term == next;
        if (l_ok && r_ok) check_preds.push_back(&ej);
      }
    }

    auto passes = [&](const uint32_t* slots, const Tuple& next_tuple) {
      for (const EquiJoin* ej : check_preds) {
        const Tuple& lt = ej->left_term == next
                              ? next_tuple
                              : arena[ej->left_term].tuple(
                                    slots[ej->left_term]);
        const Tuple& rt = ej->right_term == next
                              ? next_tuple
                              : arena[ej->right_term].tuple(
                                    slots[ej->right_term]);
        if (!(lt[ej->left_col] == rt[ej->right_col])) return false;
      }
      return true;
    };

    PartialSet joined(n);

    if (mode == Mode::kProbe) {
      const Conn& pc = connecting[probe_conn];
      const TermSource& tsrc = query.terms[next];
      materialized[next] = true;  // filled incrementally by the probes
      for (size_t r = 0; r < current.size(); ++r) {
        const uint32_t* slots = current.slots(r);
        const Value& key = arena[pc.bt].tuple(slots[pc.bt])[pc.bc];
        local.index_probes++;
        auto on_match = [&](const Tuple& m) {
          local.input_rows++;
          if (!admits(next, m)) return;
          if (!passes(slots, m)) return;
          arena[next].rows.push_back(
              ArenaRow{copy_into_spill(m), 1, kNullCsn});
          joined.AppendExtended(
              current, r, next,
              static_cast<uint32_t>(arena[next].rows.size() - 1), 1,
              kNullCsn);
        };
        if (tsrc.kind == TermSource::Kind::kBaseCurrent) {
          tables[next]->ProbeVisitCurrent(txn->id(), pc.nc, key, on_match);
        } else {
          tables[next]->ProbeVisitSnapshot(tsrc.snapshot_csn, pc.nc, key,
                                           on_match);
        }
      }
    } else if (mode == Mode::kHashJoin) {
      ROLLVIEW_RETURN_NOT_OK(materialize(next));
      // Build the hash table over the smaller input. Compensation queries
      // drive a few partial rows against a large delta range; building over
      // `current` there turns O(|big| inserts) into O(|big| lookups).
      std::unordered_map<JoinKey, std::vector<uint32_t>, JoinKeyHasher> ht;
      if (current.size() <= arena[next].size()) {
        ht.reserve(current.size());
        for (size_t r = 0; r < current.size(); ++r) {
          const uint32_t* slots = current.slots(r);
          JoinKey k;
          k.values.reserve(connecting.size());
          for (const Conn& c : connecting) {
            k.values.push_back(arena[c.bt].tuple(slots[c.bt])[c.bc]);
          }
          ht[std::move(k)].push_back(static_cast<uint32_t>(r));
        }
        JoinKey key;
        for (size_t s = 0; s < arena[next].size(); ++s) {
          uint32_t slot = static_cast<uint32_t>(s);
          key.values.clear();
          for (const Conn& c : connecting) {
            key.values.push_back(arena[next].tuple(slot)[c.nc]);
          }
          auto it = ht.find(key);
          if (it == ht.end()) continue;
          for (uint32_t r : it->second) {
            if (!passes(current.slots(r), arena[next].tuple(slot))) continue;
            joined.AppendExtended(current, r, next, slot,
                                  arena[next].count(slot),
                                  arena[next].ts(slot));
          }
        }
      } else {
        ht.reserve(arena[next].size());
        for (size_t s = 0; s < arena[next].size(); ++s) {
          uint32_t slot = static_cast<uint32_t>(s);
          JoinKey k;
          k.values.reserve(connecting.size());
          for (const Conn& c : connecting) {
            k.values.push_back(arena[next].tuple(slot)[c.nc]);
          }
          ht[std::move(k)].push_back(slot);
        }
        JoinKey key;
        for (size_t r = 0; r < current.size(); ++r) {
          const uint32_t* slots = current.slots(r);
          key.values.clear();
          for (const Conn& c : connecting) {
            key.values.push_back(arena[c.bt].tuple(slots[c.bt])[c.bc]);
          }
          auto it = ht.find(key);
          if (it == ht.end()) continue;
          for (uint32_t s : it->second) {
            if (!passes(slots, arena[next].tuple(s))) continue;
            joined.AppendExtended(current, r, next, s, arena[next].count(s),
                                  arena[next].ts(s));
          }
        }
      }
    } else {
      // Cartesian product.
      ROLLVIEW_RETURN_NOT_OK(materialize(next));
      for (size_t r = 0; r < current.size(); ++r) {
        const uint32_t* slots = current.slots(r);
        for (size_t s = 0; s < arena[next].size(); ++s) {
          uint32_t slot = static_cast<uint32_t>(s);
          if (!passes(slots, arena[next].tuple(slot))) continue;
          joined.AppendExtended(current, r, next, slot,
                                arena[next].count(slot),
                                arena[next].ts(slot));
        }
      }
    }

    // Mark every predicate checkable at this level as consumed (used for
    // the join or checked via check_preds just now).
    for (size_t p = 0; p < query.equi_joins.size(); ++p) {
      const EquiJoin& ej = query.equi_joins[p];
      bool l_ok = bound[ej.left_term] || ej.left_term == next;
      bool r_ok = bound[ej.right_term] || ej.right_term == next;
      if (l_ok && r_ok) pred_used[p] = true;
    }
    bound[next] = true;
    ++num_bound;
    current = std::move(joined);
  }

  // Assemble output: concatenated tuple in term order, residual selection,
  // projection, sign.
  DeltaRows out;
  out.reserve(current.size());
  size_t total_width = 0;
  for (size_t w : widths) total_width += w;

  for (size_t r = 0; r < current.size(); ++r) {
    if (current.count(r) == 0) continue;
    const uint32_t* slots = current.slots(r);
    bool complete = true;
    for (size_t i = 0; i < n; ++i) {
      if (slots[i] == kUnbound) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;  // empty-level break left partial rows unbound
    Tuple concat;
    concat.reserve(total_width);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& piece = arena[i].tuple(slots[i]);
      concat.insert(concat.end(), piece.begin(), piece.end());
    }
    if (residual && !residual->EvalBool(concat)) continue;
    Tuple projected;
    if (query.projection.empty()) {
      projected = std::move(concat);
    } else {
      projected.reserve(query.projection.size());
      for (size_t idx : query.projection) projected.push_back(concat[idx]);
    }
    out.emplace_back(std::move(projected), current.count(r) * query.sign,
                     current.ts(r));
  }
  local.output_rows = out.size();
  local.exec_nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - exec_start)
          .count());
  if (stats != nullptr) stats->Add(local);
  return out;
}

}  // namespace rollview
