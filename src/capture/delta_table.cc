#include "capture/delta_table.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace rollview {

void DeltaTable::Append(DeltaRow row) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  if (ts_sorted_) {
    assert(row.ts >= max_ts_ && "ts_sorted delta table appended out of order");
  }
  if (row.ts > max_ts_) max_ts_ = row.ts;
  rows_.push_back(std::move(row));
}

void DeltaTable::AppendBatch(std::vector<DeltaRow> rows) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  for (DeltaRow& row : rows) {
    if (ts_sorted_) {
      assert(row.ts >= max_ts_ &&
             "ts_sorted delta table appended out of order");
    }
    if (row.ts > max_ts_) max_ts_ = row.ts;
    rows_.push_back(std::move(row));
  }
}

size_t DeltaTable::LowerBound(Csn bound) const {
  // First index with ts > bound.
  auto it = std::upper_bound(
      rows_.begin(), rows_.end(), bound,
      [](Csn b, const DeltaRow& r) { return b < r.ts; });
  return static_cast<size_t>(it - rows_.begin());
}

DeltaRows DeltaTable::Scan(const CsnRange& range) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  DeltaRows out;
  if (range.empty()) return out;
  if (ts_sorted_) {
    size_t begin = LowerBound(range.lo);
    size_t end = LowerBound(range.hi);
    out.assign(rows_.begin() + static_cast<ptrdiff_t>(begin),
               rows_.begin() + static_cast<ptrdiff_t>(end));
  } else {
    for (const DeltaRow& r : rows_) {
      if (range.Contains(r.ts)) out.push_back(r);
    }
  }
  return out;
}

DeltaRows DeltaTable::ScanAll() const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  return DeltaRows(rows_.begin(), rows_.end());
}

DeltaRowRefs DeltaTable::ScanRefs(const CsnRange& range, Pin* pin) const {
  return ScanRefs(range, nullptr, pin);
}

DeltaRowRefs DeltaTable::ScanRefs(const CsnRange& range,
                                  const DeltaPartitionFilter* filter,
                                  Pin* pin) const {
  // Pin before latching: once Prune (which holds the exclusive latch while
  // it checks pins) lets us through, the store can only grow.
  *pin = Pin(this);
  std::shared_lock<std::shared_mutex> lk(latch_);
  DeltaRowRefs out;
  if (range.empty()) return out;
  const bool filtered = filter != nullptr && filter->count > 1;
  if (ts_sorted_) {
    size_t begin = LowerBound(range.lo);
    size_t end = LowerBound(range.hi);
    out.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      if (!filtered || filter->Matches(rows_[i])) out.push_back(&rows_[i]);
    }
  } else {
    for (const DeltaRow& r : rows_) {
      if (range.Contains(r.ts) && (!filtered || filter->Matches(r))) {
        out.push_back(&r);
      }
    }
  }
  return out;
}

size_t DeltaTable::CountInRange(const CsnRange& range) const {
  return CountInRange(range, nullptr);
}

size_t DeltaTable::CountInRange(const CsnRange& range,
                                const DeltaPartitionFilter* filter) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  if (range.empty()) return 0;
  const bool filtered = filter != nullptr && filter->count > 1;
  if (ts_sorted_ && !filtered) {
    return LowerBound(range.hi) - LowerBound(range.lo);
  }
  size_t n = 0;
  if (ts_sorted_) {
    size_t begin = LowerBound(range.lo);
    size_t end = LowerBound(range.hi);
    for (size_t i = begin; i < end; ++i) {
      if (filter->Matches(rows_[i])) ++n;
    }
    return n;
  }
  for (const DeltaRow& r : rows_) {
    if (range.Contains(r.ts) && (!filtered || filter->Matches(r))) ++n;
  }
  return n;
}

Csn DeltaTable::TsAfterRows(Csn from, size_t rows, Csn cap) const {
  return TsAfterRows(from, rows, cap, nullptr);
}

Csn DeltaTable::TsAfterRows(Csn from, size_t rows, Csn cap,
                            const DeltaPartitionFilter* filter) const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  assert(ts_sorted_);
  if (rows == 0) return from >= cap ? cap : from;
  const bool filtered = filter != nullptr && filter->count > 1;
  size_t begin = LowerBound(from);
  if (!filtered) {
    size_t target = begin + rows - 1;
    if (target >= rows_.size()) return cap;
    Csn ts = rows_[target].ts;
    return ts > cap ? cap : ts;
  }
  size_t seen = 0;
  for (size_t i = begin; i < rows_.size(); ++i) {
    if (rows_[i].ts > cap) return cap;
    if (filter->Matches(rows_[i]) && ++seen == rows) {
      return rows_[i].ts;
    }
  }
  return cap;
}

size_t DeltaTable::size() const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  return rows_.size();
}

Csn DeltaTable::max_ts() const {
  std::shared_lock<std::shared_mutex> lk(latch_);
  return max_ts_;
}

size_t DeltaTable::Prune(Csn up_to) {
  std::unique_lock<std::shared_mutex> lk(latch_);
  // Defer while borrowed refs are outstanding; retention's next cycle will
  // reclaim. Checked under the exclusive latch: a reader pins before it
  // latches, so a pin we cannot see here belongs to a reader that has not
  // collected its refs yet and will see the post-prune store.
  if (pins_.load(std::memory_order_acquire) > 0) return 0;
  size_t before = rows_.size();
  if (ts_sorted_) {
    size_t keep_from = LowerBound(up_to);
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<ptrdiff_t>(keep_from));
  } else {
    rows_.erase(std::remove_if(rows_.begin(), rows_.end(),
                               [up_to](const DeltaRow& r) {
                                 return r.ts <= up_to;
                               }),
                rows_.end());
  }
  return before - rows_.size();
}

size_t DeltaTable::Clear() {
  std::unique_lock<std::shared_mutex> lk(latch_);
  assert(pins_.load(std::memory_order_acquire) == 0 &&
         "Clear with live Pins would dangle borrowed rows");
  size_t before = rows_.size();
  rows_.clear();
  max_ts_ = kNullCsn;
  return before;
}

}  // namespace rollview
