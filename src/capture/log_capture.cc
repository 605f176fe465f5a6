#include "capture/log_capture.h"

#include <algorithm>
#include <cassert>

namespace rollview {

LogCapture::LogCapture(Db* db, CaptureOptions options)
    : db_(db), options_(options) {}

LogCapture::~LogCapture() { Stop(); }

size_t LogCapture::Poll() {
  std::lock_guard<std::mutex> poll_lk(poll_mu_);
  FaultInjector* fi = db_->fault_injector();
  if (fi != nullptr && fi->MaybeCaptureLag()) {
    // Injected capture-lag spike: this poll consumes nothing, so the
    // high-water mark stalls and downstream WaitForCsn calls time out with
    // Busy -- the transient the maintenance drivers must absorb.
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.lag_stalls++;
    return 0;
  }
  std::vector<WalRecord> batch;
  Lsn next = db_->wal()->ReadFrom(cursor_, options_.batch_size, &batch);
  if (batch.empty()) return 0;

  uint64_t rows_published = 0;
  uint64_t txns_captured = 0;
  Csn hwm = kNullCsn;

  for (const WalRecord& rec : batch) {
    switch (rec.kind) {
      case WalRecord::Kind::kInsert:
      case WalRecord::Kind::kDelete: {
        // Only log-capture-mode tables are captured from the WAL; trigger-
        // mode tables publish their delta rows on the commit path.
        if (db_->capture_mode(rec.table) == CaptureMode::kLog) {
          pending_[rec.txn].push_back(PendingChange{
              rec.table, rec.tuple,
              rec.kind == WalRecord::Kind::kInsert ? int64_t{+1}
                                                   : int64_t{-1}});
        }
        break;
      }
      case WalRecord::Kind::kCommit: {
        auto it = pending_.find(rec.txn);
        if (it != pending_.end()) {
          for (PendingChange& ch : it->second) {
            db_->delta(ch.table)
                ->Append(DeltaRow(std::move(ch.tuple), ch.count,
                                  rec.commit_csn));
            ++rows_published;
          }
          // DPropR records only "relevant" transactions -- those that
          // changed a captured table (Sec. 5) -- using the commit timestamp
          // found in the log.
          db_->uow()->Record(rec.txn, rec.commit_csn, rec.commit_time);
          pending_.erase(it);
          ++txns_captured;
        }
        // The high-water mark advances on *every* commit: all changes with
        // CSN <= rec.commit_csn are now published.
        hwm = rec.commit_csn;
        break;
      }
      case WalRecord::Kind::kAbort:
        pending_.erase(rec.txn);
        break;
      case WalRecord::Kind::kCreateTable:
        break;  // catalog records matter to recovery, not to capture
      case WalRecord::Kind::kCreateView:
      case WalRecord::Kind::kViewDeltaAppend:
      case WalRecord::Kind::kViewCursor:
      case WalRecord::Kind::kViewApplied:
      case WalRecord::Kind::kViewCheckpoint:
        // View-maintenance durability records are recovery's concern; the
        // capture process only publishes *base-table* deltas. (A propagation
        // txn's kCommit still advances the high-water mark above, which is
        // correct: it changed no captured table.)
        break;
    }
  }

  // One advance (and at most one wakeup) per batch, published before the
  // truncation below so downstream drivers start on the batch at once.
  hwm_.Advance(hwm);
  cursor_ = next;
  if (options_.truncate_wal) db_->wal()->Truncate(cursor_);

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.records_processed += batch.size();
    stats_.txns_captured += txns_captured;
    stats_.rows_published += rows_published;
  }
  return batch.size();
}

void LogCapture::CatchUp() {
  // "Poll()==0" alone is not "done": an injected lag stall consumes
  // nothing while records remain, so check the cursor against the log end.
  while (true) {
    if (Poll() > 0) continue;
    std::lock_guard<std::mutex> lk(poll_mu_);
    if (cursor_ >= db_->wal()->next_lsn()) return;
  }
}

void LogCapture::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { ThreadMain(); });
}

void LogCapture::Stop() {
  if (!running_.exchange(false)) return;
  // Wake the thread parked on the commit frontier, and WaitForCsn sleepers
  // so they notice running_ flipped and fall back to inline polling
  // instead of waiting out their full timeout.
  db_->stable_frontier()->WakeAll();
  hwm_.WakeAll();
  if (thread_.joinable()) thread_.join();
}

void LogCapture::ThreadMain() {
  CsnFrontier* commits = db_->stable_frontier();
  auto stopped = [this] { return !running_.load(std::memory_order_relaxed); };
  while (!stopped()) {
    // Read before polling: a commit that lands while Poll runs moves the
    // frontier past `seen`, so the wait below returns at once.
    const Csn seen = commits->value();
    if (Poll() > 0) continue;
    commits->WaitPast(seen, CsnFrontier::Clock::now() + kPipelineHeartbeat,
                      stopped);
  }
  // Final drain so Stop() leaves nothing behind.
  CatchUp();
}

Status LogCapture::WaitForCsn(Csn csn, std::chrono::milliseconds timeout) {
  const auto deadline = CsnFrontier::Clock::now() + timeout;
  auto stopped = [this] { return !running_.load(std::memory_order_relaxed); };
  auto busy = [csn] {
    return Status::Busy("capture did not reach csn " + std::to_string(csn));
  };
  while (high_water_mark() < csn) {
    if (!stopped()) {
      // Background mode: block until Poll() advances the mark (or capture
      // stops, in which case fall through to inline polling).
      if (!hwm_.WaitPast(csn - 1, deadline, stopped) && !stopped()) {
        return busy();
      }
      continue;
    }
    const Csn seen = db_->stable_csn();
    if (Poll() > 0) continue;
    // Nothing in the WAL and still behind: the CSN may not exist yet, so
    // sleep until the next commit.
    const auto now = CsnFrontier::Clock::now();
    if (now >= deadline) return busy();
    db_->stable_frontier()->WaitPast(
        seen, std::min(deadline, now + kPipelineHeartbeat));
  }
  return Status::OK();
}

LogCapture::Stats LogCapture::GetStats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

}  // namespace rollview
