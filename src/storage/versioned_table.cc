#include "storage/versioned_table.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <ranges>

namespace rollview {

VersionedTable::VersionedTable(TableId id, std::string name, Schema schema,
                               std::vector<size_t> indexed_columns)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      indexed_columns_(std::move(indexed_columns)) {
  indexes_.resize(indexed_columns_.size());
}

size_t VersionedTable::AddPendingInsert(TxnId txn, Tuple tuple) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  size_t slot = versions_.size();
  Version v;
  v.tuple = std::move(tuple);
  v.begin_txn = txn;
  versions_.push_back(std::move(v));
  ++pending_versions_;
  for (size_t i = 0; i < indexed_columns_.size(); ++i) {
    indexes_[i][versions_[slot].tuple[indexed_columns_[i]]].push_back(slot);
  }
  return slot;
}

bool VersionedTable::VisibleToTxn(const Version& v, TxnId txn) const {
  if (v.insert_aborted) return false;
  bool inserted = (v.begin_csn != kNullCsn) || (v.begin_txn == txn);
  if (!inserted) return false;
  if (v.end_csn != kMaxCsn) return false;         // committed delete
  if (v.end_txn != kInvalidTxnId && v.end_txn == txn) return false;
  // A pending delete by *another* transaction leaves the row visible; under
  // strict 2PL this situation cannot arise while we hold a conflicting lock,
  // but snapshot-ahead readers and assertions may still evaluate it.
  return true;
}

bool VersionedTable::VisibleAt(const Version& v, Csn csn) const {
  if (v.insert_aborted) return false;
  if (v.begin_csn == kNullCsn || v.begin_csn > csn) return false;
  return v.end_csn == kMaxCsn || v.end_csn > csn;
}

int64_t VersionedTable::MarkPendingDeletes(TxnId txn, const Tuple& tuple,
                                           int64_t limit,
                                           std::vector<size_t>* slots) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  // Visits candidate slots in ascending order.
  auto mark = [&](const auto& candidates) {
    int64_t marked = 0;
    for (size_t slot : candidates) {
      if (limit >= 0 && marked >= limit) break;
      Version& v = versions_[slot];
      if (!VisibleToTxn(v, txn)) continue;
      if (v.end_txn != kInvalidTxnId) continue;  // already pending-deleted
      if (v.tuple != tuple) continue;
      v.end_txn = txn;
      ++pending_versions_;
      slots->push_back(slot);
      ++marked;
    }
    return marked;
  };
  if (indexed_columns_.empty()) {
    return mark(std::views::iota(size_t{0}, versions_.size()));
  }
  // Every version of `tuple` carries its key, so the leading index's slot
  // list holds them all, in the same order a scan would visit them. (A
  // tuple too short to have a key equals no indexed version.)
  if (tuple.size() <= indexed_columns_[0]) return 0;
  auto it = indexes_[0].find(tuple[indexed_columns_[0]]);
  if (it == indexes_[0].end()) return 0;
  return mark(it->second);
}

void VersionedTable::CommitInsert(size_t slot, Csn csn) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  Version& v = versions_[slot];
  assert(v.begin_csn == kNullCsn && !v.insert_aborted);
  v.begin_csn = csn;
  v.begin_txn = kInvalidTxnId;
  --pending_versions_;
}

void VersionedTable::CommitDelete(size_t slot, Csn csn) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  Version& v = versions_[slot];
  assert(v.end_txn != kInvalidTxnId && v.end_csn == kMaxCsn);
  v.end_csn = csn;
  v.end_txn = kInvalidTxnId;
  --pending_versions_;
}

void VersionedTable::AbortInsert(size_t slot) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  Version& v = versions_[slot];
  assert(v.begin_csn == kNullCsn);
  v.insert_aborted = true;
  v.begin_txn = kInvalidTxnId;
  --pending_versions_;
}

void VersionedTable::AbortDelete(size_t slot) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  Version& v = versions_[slot];
  assert(v.end_txn != kInvalidTxnId && v.end_csn == kMaxCsn);
  v.end_txn = kInvalidTxnId;
  --pending_versions_;
}

template <typename Visible>
void VersionedTable::ScanVisitImpl(
    Visible visible, const std::function<bool(const Tuple&)>* pred,
    const std::function<void(const Tuple&)>& fn) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  for (const Version& v : versions_) {
    if (!visible(v)) continue;
    if (pred != nullptr && !(*pred)(v.tuple)) continue;
    fn(v.tuple);
  }
}

template <typename Visible>
void VersionedTable::ProbeVisitImpl(
    Visible visible, size_t col, const Value& key,
    const std::function<void(const Tuple&)>& fn) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  for (size_t i = 0; i < indexed_columns_.size(); ++i) {
    if (indexed_columns_[i] != col) continue;
    auto it = indexes_[i].find(key);
    if (it == indexes_[i].end()) return;
    for (size_t slot : it->second) {
      const Version& v = versions_[slot];
      if (visible(v)) fn(v.tuple);
    }
    return;
  }
  assert(false && "probe on a non-indexed column");
}

void VersionedTable::ScanVisitCurrent(
    TxnId txn, const std::function<void(const Tuple&)>& fn,
    const std::function<bool(const Tuple&)>* pred) const {
  ScanVisitImpl([&](const Version& v) { return VisibleToTxn(v, txn); }, pred,
                fn);
}

void VersionedTable::ScanVisitSnapshot(
    Csn csn, const std::function<void(const Tuple&)>& fn,
    const std::function<bool(const Tuple&)>* pred) const {
  ScanVisitImpl([&](const Version& v) { return VisibleAt(v, csn); }, pred, fn);
}

void VersionedTable::VisitVersions(
    const std::function<void(const Tuple&, Csn begin, Csn end)>& fn) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  for (const Version& v : versions_) {
    if (v.insert_aborted || v.begin_csn == kNullCsn) continue;
    fn(v.tuple, v.begin_csn, v.end_csn);
  }
}

void VersionedTable::ProbeVisitCurrent(
    TxnId txn, size_t col, const Value& key,
    const std::function<void(const Tuple&)>& fn) const {
  ProbeVisitImpl([&](const Version& v) { return VisibleToTxn(v, txn); }, col,
                 key, fn);
}

void VersionedTable::ProbeVisitSnapshot(
    Csn csn, size_t col, const Value& key,
    const std::function<void(const Tuple&)>& fn) const {
  ProbeVisitImpl([&](const Version& v) { return VisibleAt(v, csn); }, col, key,
                 fn);
}

std::vector<Tuple> VersionedTable::CurrentScan(TxnId txn) const {
  std::vector<Tuple> out;
  ScanVisitCurrent(txn, [&](const Tuple& t) { out.push_back(t); });
  return out;
}

std::vector<Tuple> VersionedTable::CurrentScanWhere(
    TxnId txn, const std::function<bool(const Tuple&)>& pred) const {
  std::vector<Tuple> out;
  ScanVisitCurrent(txn, [&](const Tuple& t) { out.push_back(t); }, &pred);
  return out;
}

std::vector<Tuple> VersionedTable::SnapshotScan(Csn csn) const {
  std::vector<Tuple> out;
  ScanVisitSnapshot(csn, [&](const Tuple& t) { out.push_back(t); });
  return out;
}

std::vector<Tuple> VersionedTable::CurrentProbe(TxnId txn, size_t col,
                                                const Value& key) const {
  std::vector<Tuple> out;
  ProbeVisitCurrent(txn, col, key, [&](const Tuple& t) { out.push_back(t); });
  return out;
}

std::vector<Tuple> VersionedTable::SnapshotProbe(Csn csn, size_t col,
                                                 const Value& key) const {
  std::vector<Tuple> out;
  ProbeVisitSnapshot(csn, col, key, [&](const Tuple& t) { out.push_back(t); });
  return out;
}

size_t VersionedTable::LiveSize() const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  size_t n = 0;
  for (const Version& v : versions_) {
    if (!v.insert_aborted && v.begin_csn != kNullCsn && v.end_csn == kMaxCsn) {
      ++n;
    }
  }
  return n;
}

size_t VersionedTable::VersionCount() const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  return versions_.size();
}

void VersionedTable::GarbageCollect(Csn horizon) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  // Open writers hold raw slots of their pending versions (Txn::write_ops_),
  // which compaction would shift; leave the table for a later pass.
  if (pending_versions_ != 0) return;
  // Compact: keep versions still visible at or after `horizon`.
  std::vector<size_t> remap(versions_.size(), SIZE_MAX);
  std::vector<Version> kept;
  kept.reserve(versions_.size());
  for (size_t i = 0; i < versions_.size(); ++i) {
    const Version& v = versions_[i];
    bool dead = v.insert_aborted ||
                (v.end_csn != kMaxCsn && v.end_csn <= horizon);
    if (dead) continue;
    remap[i] = kept.size();
    kept.push_back(v);
  }
  versions_ = std::move(kept);
  for (auto& index : indexes_) {
    for (auto it = index.begin(); it != index.end();) {
      std::vector<size_t>& slots = it->second;
      std::vector<size_t> updated;
      updated.reserve(slots.size());
      for (size_t slot : slots) {
        if (remap[slot] != SIZE_MAX) updated.push_back(remap[slot]);
      }
      if (updated.empty()) {
        it = index.erase(it);
      } else {
        it->second = std::move(updated);
        ++it;
      }
    }
  }
}

}  // namespace rollview
