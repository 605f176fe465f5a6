// Copyright 2026 The rollview Authors.
//
// LogCapture: the paper's DPropR analogue (Sec. 5). It tails the engine's
// write-ahead log, buffers each transaction's changes until its commit
// record appears, and then -- atomically with respect to readers of the
// delta tables -- appends timestamped delta rows to Delta^R for every
// log-capture-mode base table the transaction touched, and records the
// transaction in the unit-of-work table.
//
// Because commit records enter the WAL in commit-sequence order, capture
// processes commits in CSN order and its high-water mark (the largest CSN
// for which all delta rows are in place) advances monotonically. The
// propagation algorithms never read a delta range beyond this mark.
//
// Capture can run as a background thread (Start/Stop) or be stepped
// manually with Poll() for deterministic tests. The background thread
// sleeps on the engine's stable-CSN frontier, so a commit wakes it; the
// high-water mark is itself a CsnFrontier that wakes the propagate
// drivers (common/csn_frontier.h).

#ifndef ROLLVIEW_CAPTURE_LOG_CAPTURE_H_
#define ROLLVIEW_CAPTURE_LOG_CAPTURE_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/csn_frontier.h"
#include "common/status.h"
#include "storage/db.h"

namespace rollview {

struct CaptureOptions {
  // WAL records consumed per Poll (throughput throttle).
  size_t batch_size = 4096;
  // Truncate consumed WAL prefixes to bound memory.
  bool truncate_wal = true;
};

class LogCapture {
 public:
  explicit LogCapture(Db* db, CaptureOptions options = CaptureOptions{});
  ~LogCapture();

  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  // Processes up to batch_size available WAL records; returns the number
  // processed. Safe to call concurrently with Start (internally serialized).
  size_t Poll();

  // Drains the WAL completely (repeated Poll until empty).
  void CatchUp();

  void Start();
  void Stop();

  // Largest CSN all of whose delta rows have been published.
  Csn high_water_mark() const { return hwm_.value(); }
  // The high-water mark as a waitable frontier (advanced once per Poll
  // batch that consumed a commit record).
  CsnFrontier* frontier() { return &hwm_; }

  // Blocks until high_water_mark() >= csn. With the background thread
  // running, waits on the high-water-mark frontier (no spinning);
  // otherwise polls inline, sleeping on the stable-CSN frontier while the
  // log is empty. Returns Busy on timeout.
  Status WaitForCsn(Csn csn, std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds(10000));

  struct Stats {
    uint64_t records_processed = 0;
    uint64_t txns_captured = 0;   // committed txns with captured changes
    uint64_t rows_published = 0;  // delta rows appended
    uint64_t lag_stalls = 0;      // Poll calls stalled by fault injection
  };
  Stats GetStats() const;

 private:
  struct PendingChange {
    TableId table;
    Tuple tuple;
    int64_t count;  // +1 insert, -1 delete
  };

  void ThreadMain();

  Db* db_;
  CaptureOptions options_;

  std::mutex poll_mu_;  // serializes Poll bodies
  Lsn cursor_ = 0;      // next WAL LSN to read (guarded by poll_mu_)
  std::unordered_map<TxnId, std::vector<PendingChange>> pending_;

  // Stop() wakes its waiters so WaitForCsn falls back to inline polling.
  CsnFrontier hwm_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace rollview

#endif  // ROLLVIEW_CAPTURE_LOG_CAPTURE_H_
