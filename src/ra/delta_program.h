// Copyright 2026 The rollview Authors.
//
// Compiled delta programs with materialized half-join views.
//
// A forward propagation query Q^V[i] joins one delta range sigma(Delta^R_i)
// against the CURRENT state of every other term of the view. The interpreted
// path (ra/executor.cc) re-plans that join per strip: pushdown splitting,
// predicate compilation and hash builds or index probes all run once per
// query, which dominates E11 at small delta intervals. A
// DeltaProgram specializes Q^V[i] once, at CreateView time:
//
//  * The join of all OTHER terms -- with every single-term and intra-group
//    selection conjunct pushed down -- is materialized as one or more
//    auxiliary HALF-JOIN VIEWS (one per connected component of the
//    other-terms join graph), hash-indexed on the columns term i joins
//    through. A delta row then probes one index per group instead of
//    re-joining every term.
//  * Residual predicates and the projection are folded into flat per-term
//    kernels extending CompiledPred: direct Value comparisons over
//    (source, column) addresses -- no Expr::Eval, no Value copies on the
//    probe path. A query whose residual cannot be flattened stays on the
//    interpreted path (per-term, recorded in Dump()).
//
// Half-join views are maintained incrementally alongside the main view: an
// advance from state A to the lock-frozen current state T applies the
// telescoping expansion
//
//   HJ(T) - HJ(A) = sum_k  m_1(A) |><| ... |><| m_{k-1}(A)
//                          |><| sigma_{A,T}(Delta^m_k)
//                          |><| m_{k+1}(T) |><| ... |><| m_K(T)
//
// executed as snapshot join queries through the interpreted executor. Each
// half-join view holds a Db snapshot pin at its as-of CSN so the version
// store can always reproduce the old side of the expansion; pins rotate
// forward on every advance.
//
// Crash consistency: half-join state is volatile and DERIVED -- it is never
// checkpointed. ViewManager::Recover (and Materialize, and online repair)
// call ViewPrograms::Reset(), and the first forward query after recovery
// deterministically rebuilds each half-join view from base-table snapshots
// at the lock-frozen current state, which by construction equals the state
// every subsequent query sees. See docs/ALGORITHMS.md §13.

#ifndef ROLLVIEW_RA_DELTA_PROGRAM_H_
#define ROLLVIEW_RA_DELTA_PROGRAM_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/csn.h"
#include "common/result.h"
#include "ra/compiled_pred.h"
#include "ra/expr.h"
#include "ra/join_query.h"
#include "schema/tuple.h"
#include "storage/db.h"

namespace rollview {

// Canonical description of one auxiliary half-join view: the join of one
// connected component of a view's "other terms", with pushed-down
// selection, hash-indexed on the columns the delta term probes through.
struct HalfJoinSpec {
  struct Member {
    TableId table = kInvalidTableId;
    size_t width = 0;  // columns in the member's schema
  };
  // In ascending original-term order; the half-join's stored tuples are the
  // members' tuples concatenated in this order.
  std::vector<Member> members;
  // Equi-joins among members, in local member-index space.
  std::vector<EquiJoin> joins;
  // Pushed-down selection over the member-concatenated tuple (single-member
  // conjuncts AND conjuncts spanning only this group). May be null. This
  // runs at BUILD/ADVANCE time only -- amortized, never on the probe path.
  ExprPtr residual;
  // Columns of the member-concatenated tuple the hash index keys on (the
  // group-side columns of the delta term's equi-joins into this group), in
  // match order with DeltaProgram::GroupProbe::delta_cols.
  std::vector<size_t> index_cols;

  // Structural identity for de-duplication across a view's programs (e.g.
  // the two symmetric programs of a self-join share one half-join view).
  std::string CanonicalKey() const;
};

// One materialized half-join view: tuple -> count multiset of the member
// join, hash-indexed by the probe key. Thread-safe: concurrent partition
// strips probe under a shared latch; advances take it exclusively.
class HalfJoinView {
 public:
  struct Row {
    Tuple tuple;  // member-concatenated
    int64_t count = 0;
  };

  HalfJoinView(HalfJoinSpec spec, std::vector<std::string> member_names);

  // Shared-latched read handle over a freshened index; valid while held.
  class ProbeGuard {
   public:
    ProbeGuard() = default;
    const std::vector<Row>* Lookup(const JoinKey& key) const {
      auto it = hj_->index_.find(key);
      return it == hj_->index_.end() ? nullptr : &it->second;
    }

   private:
    friend class HalfJoinView;
    const HalfJoinView* hj_ = nullptr;
    std::shared_lock<std::shared_mutex> lock_;
  };

  // Brings the view to the members' current state and returns a probe
  // guard. The caller must hold table-S locks on every member (the state is
  // lock-frozen) and delta-S locks on their delta resources, and must have
  // verified base-delta publication through every member's last-change CSN
  // (`delta_ready` is the published high-water mark; an advance whose
  // incremental window is not fully published, or whose window was pruned,
  // falls back to a deterministic full rebuild from snapshots).
  Result<ProbeGuard> EnsureFresh(Db* db, Csn delta_ready, ExecStats* stats);

  // Drops the materialized state (index, pin, as-of); the next EnsureFresh
  // rebuilds from snapshots. Crash recovery and re-materialization hook.
  void Reset();

  const HalfJoinSpec& spec() const { return spec_; }
  const std::vector<std::string>& member_names() const {
    return member_names_;
  }
  Csn as_of() const { return as_of_.load(std::memory_order_acquire); }
  uint64_t resident_rows() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t resident_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  using Index = std::unordered_map<JoinKey, std::vector<Row>, JoinKeyHasher>;

  // True when the index reflects the members' current state (every member's
  // last-change CSN is at or below as_of_). Caller holds mu_ (any mode).
  bool FreshLocked(Db* db) const;
  // Advance/rebuild to the current stable state. Caller holds mu_ unique.
  Status AdvanceLocked(Db* db, Csn delta_ready, ExecStats* stats);
  Status RebuildLocked(Db* db, Csn target, ExecStats* stats);
  // Merges signed member-concat rows into the index. Caller holds mu_
  // unique. Returns rows applied.
  size_t ApplyLocked(DeltaRows rows);
  // The build/advance selection in member-concat space (spec_.residual).
  JoinQuery StageQuery(size_t k, Csn old_csn, Csn new_csn,
                       const DeltaRows* delta_rows) const;

  HalfJoinSpec spec_;
  std::vector<std::string> member_names_;
  // spec_.residual flattened for per-row evaluation on the single-member
  // build/advance fast paths (multi-member groups evaluate the residual
  // inside the staged executor queries instead).
  CompiledPred residual_pred_;

  mutable std::shared_mutex mu_;
  Index index_;         // guarded by mu_
  bool built_ = false;  // guarded by mu_
  Db::SnapshotHandle pin_;  // guarded by mu_; holds GC above as_of_
  std::atomic<Csn> as_of_{kNullCsn};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
};

// Hash index over one delta table's rows within an advancing CSN window
// (lo, hi], with the same pushed-down residual and probe key as the
// corresponding half-join view. This is the compiled form of a two-delta-term
// COMPENSATION query's big side: rolling compensation re-joins each strip
// against the other relation's drift range (frontier, t_exec], whose left and
// right edges advance monotonically -- so instead of re-scanning the whole
// range per query (quadratic during catch-up), the index retires rows that
// leave at the left edge and admits rows that enter at the right edge; each
// delta row is touched twice total. Rows keep their (count, ts) so the probe
// kernel reproduces the interpreted executor's count-product and
// min-timestamp rule exactly. A non-monotone window request or a pruned left
// edge falls back to a full rebuild of the window from the delta store,
// which by construction equals what the interpreted scan would see. Like
// half-join views this state is derived and volatile: never checkpointed,
// dropped on Reset().
class DeltaWindowIndex {
 public:
  struct Row {
    Tuple tuple;
    int64_t count = 0;
    Csn ts = kNullCsn;
  };

  // `spec` must be single-member; shares the half-join's pushdown residual
  // and index_cols.
  explicit DeltaWindowIndex(HalfJoinSpec spec);

  class ProbeGuard {
   public:
    ProbeGuard() = default;
    const std::vector<Row>* Lookup(const JoinKey& key) const {
      auto it = w_->index_.find(key);
      return it == w_->index_.end() ? nullptr : &it->second;
    }

   private:
    friend class DeltaWindowIndex;
    const DeltaWindowIndex* w_ = nullptr;
    std::shared_lock<std::shared_mutex> lock_;
  };

  // Brings the index to exactly `range` and returns a shared-latched probe
  // guard. The caller must hold the delta-S lock on the member's delta
  // resource (the store is frozen for the query's duration). Returns
  // NotSupported if concurrent callers keep moving the window to different
  // ranges (callers fall back to the interpreted path).
  Result<ProbeGuard> EnsureWindow(Db* db, const CsnRange& range,
                                  ExecStats* stats);

  void Reset();

  uint64_t resident_rows() const {
    return rows_.load(std::memory_order_relaxed);
  }
  uint64_t resident_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  using Index = std::unordered_map<JoinKey, std::vector<Row>, JoinKeyHasher>;

  // Caller holds mu_ unique. Moves the window to `range`, incrementally
  // when monotone, else by rebuild.
  Status AdvanceLocked(Db* db, const CsnRange& range, ExecStats* stats);
  // Merges `refs` (x sign) into the index; rows are identified by
  // (tuple, ts) so retirement removes exactly what admission added.
  void ApplyLocked(const DeltaRowRefs& refs, int64_t sign);

  HalfJoinSpec spec_;
  CompiledPred residual_pred_;

  mutable std::shared_mutex mu_;
  Index index_;  // guarded by mu_
  bool built_ = false;
  CsnRange window_{kNullCsn, kNullCsn};  // guarded by mu_
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
};

// The compiled form of one forward propagation query Q^V[i].
struct DeltaProgram {
  // A flat comparison over (source, column) addresses: source 0 is the
  // delta tuple, source 1+g is group g's half-join row. Checks derived from
  // equi-joins compare with raw Value equality (NULL == NULL matches, like
  // the executor's join modes); checks derived from the residual selection
  // use SQL semantics (NULL propagates as false), matching Expr::EvalBool.
  struct Check {
    uint8_t a_src = 0;
    uint32_t a_col = 0;
    Expr::CmpOp op = Expr::CmpOp::kEq;
    bool vs_literal = false;
    Value literal;
    uint8_t b_src = 0;
    uint32_t b_col = 0;
    bool null_eq = false;  // equi-join semantics (raw Value comparison)
  };
  struct GroupProbe {
    std::shared_ptr<HalfJoinView> hj;
    // Delta-tuple columns forming the probe key, aligned with the
    // half-join spec's index_cols.
    std::vector<size_t> delta_cols;
    // Compensation support (two-term views only): the same spec applied to
    // the other term's DELTA rows over an advancing window. Null when the
    // view's compensation queries cannot take the compiled path.
    std::shared_ptr<DeltaWindowIndex> window;
  };
  struct OutCol {
    uint8_t src = 0;  // 0 = delta tuple, 1+g = group g's half-join row
    uint32_t col = 0;
  };

  size_t delta_term = 0;
  // Column-vs-literal conjuncts local to the delta term.
  CompiledPred delta_pred;
  // Flat checks referencing only the delta tuple (self equi-joins, local
  // column-vs-column conjuncts); evaluated once per delta row.
  std::vector<Check> delta_checks;
  std::vector<GroupProbe> groups;
  // Flat checks spanning the delta tuple and/or multiple groups; evaluated
  // per match combination.
  std::vector<Check> cross_checks;
  // The view projection over (source, column) addresses.
  std::vector<OutCol> projection;
};

// All compiled programs of one view plus their (de-duplicated) half-join
// views. Owned by the View; compiled once at CreateView.
class ViewPrograms {
 public:
  // Compiles one program per term of the SPJ definition. Never fails:
  // a term whose residual cannot be flattened simply stays interpreted
  // (compiled(term) == false, reason recorded for Dump()).
  static std::shared_ptr<ViewPrograms> Compile(
      Db* db, const std::vector<TableId>& tables,
      const std::vector<EquiJoin>& joins, const ExprPtr& selection,
      const std::vector<size_t>& projection, std::string owner_name);

  bool compiled(size_t term) const {
    return term < programs_.size() && programs_[term] != nullptr;
  }
  size_t num_terms() const { return programs_.size(); }
  size_t num_compiled() const;
  size_t num_half_joins() const { return half_joins_.size(); }

  // Executes the compiled Q^V[delta_term] over `delta_rows`: freshens and
  // probes each group's half-join view, runs the flat kernels, and returns
  // the signed, delta-timestamped output rows. Caller contract is
  // HalfJoinView::EnsureFresh's (member locks held, publication verified).
  // Returns NotSupported when the term is not compiled -- callers fall
  // back to the interpreted executor.
  Result<DeltaRows> ExecuteForward(size_t delta_term,
                                   const DeltaRowRefs& delta_rows,
                                   int64_t sign, Csn delta_ready,
                                   ExecStats* stats);

  // Executes the compiled form of a two-delta-term COMPENSATION query:
  // iterates `delta_rows` (the small strip side) and probes the advancing
  // window index over `other_term`'s delta rows restricted to
  // `other_range`, applying the same flat kernels as the forward program
  // plus the executor's count-product and min-timestamp combination rules.
  // The caller must hold delta-S locks on both terms' delta resources.
  // Returns NotSupported when the shape is not compiled (callers fall back
  // to the interpreted executor).
  Result<DeltaRows> ExecuteCompensation(size_t delta_term,
                                        const DeltaRowRefs& delta_rows,
                                        size_t other_term,
                                        const CsnRange& other_range,
                                        int64_t sign, ExecStats* stats);

  // Largest last-change CSN over the members of `delta_term`'s groups --
  // the base-delta publication the caller must verify before
  // ExecuteForward. kNullCsn when nothing is required.
  Csn RequiredDeltaReady(size_t delta_term) const;

  // Drops every half-join view's materialized state (crash recovery,
  // re-materialization, online repair). Programs themselves are immutable.
  void Reset();

  // Byte-stable text dump of every program and half-join spec -- the
  // golden-file surface for plan-drift tests. Depends only on the
  // definition (table names, expression text), never on runtime state.
  std::string Dump() const;

  // Memory gauges, aggregated over this view's half-join views.
  uint64_t half_join_rows() const;
  uint64_t half_join_bytes() const;

  const std::string& owner_name() const { return owner_; }

 private:
  ViewPrograms() = default;

  Db* db_ = nullptr;
  std::string owner_;
  std::vector<TableId> tables_;
  std::vector<std::string> table_names_;
  std::vector<std::unique_ptr<DeltaProgram>> programs_;
  std::vector<std::string> reasons_;  // per-term; empty when compiled
  std::vector<std::shared_ptr<HalfJoinView>> half_joins_;
};

}  // namespace rollview

#endif  // ROLLVIEW_RA_DELTA_PROGRAM_H_
