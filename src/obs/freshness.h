// Copyright 2026 The rollview Authors.
//
// End-to-end freshness pipeline: per-CSN wall-time stamps at every stage a
// committed delta passes through on its way into a materialized view.
//
// The asynchronous maintenance pipeline (Def. 4.2) is
//
//   commit ack --> WAL durable --> strip pickup --> t_comp --> MV visible
//
// and `rollview_view_staleness_csn` only measures the gap in CSN units.
// The FreshnessTracker measures it in *time*: Db::Commit stamps a bounded
// per-CSN ring at commit ack, the WAL group-commit flusher stamps the
// durable frontier, each propagation strip stamps the range it picked up
// and the t_comp it reached, and the apply driver closes the loop when the
// MV becomes visible at a CSN. At visibility time every commit in the
// newly visible range is decomposed into four stage lags
//
//   durable    commit ack -> group-commit fsync covering the CSN
//   pickup     durable    -> start of the strip that consumed the CSN
//   propagate  pickup     -> hwm advance past the CSN (strip t_comp folded
//                            across partitions in parallel mode)
//   apply      propagate  -> MV visible at/after the CSN
//
// Each stage stamp is clamped to be >= the previous stage's stamp, so the
// four stage lags sum to the end-to-end commit-to-visibility latency
// *exactly* by construction (a missing stamp -- e.g. no durable WAL, or a
// strip that raced ahead of its own bookkeeping -- contributes a zero-lag
// stage instead of skewing the sum). E17 leans on this identity.
//
// All time flows through one injectable monotonic clock
// (FreshnessOptions::clock), so unit tests drive every stamp from a fake
// clock and assert exact latencies without sleeping.
//
// Threading: OnCommit is called by committers, OnDurable by the WAL
// flusher thread, OnStripStart/OnHwmAdvance by maintenance/worker-pool
// threads, OnVisible by the apply driver, OnRead by reader threads. The
// tracker and each per-view channel are internally synchronized; the
// histograms/counters they own are safe to scrape concurrently.

#ifndef ROLLVIEW_OBS_FRESHNESS_H_
#define ROLLVIEW_OBS_FRESHNESS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/csn.h"
#include "common/metrics.h"

namespace rollview {
namespace obs {

// Monotonic wall time in nanoseconds (std::chrono::steady_clock). The
// default clock when FreshnessOptions::clock is not set.
uint64_t SteadyClockNanos();

// The four measured stage lags, in pipeline order. Stage k's lag is the
// time from stage k-1's stamp to stage k's stamp (stage 0 starts at
// commit ack).
enum class FreshnessStage : uint8_t {
  kDurable = 0,    // commit ack -> WAL group-commit fsync
  kPickup = 1,     // durable -> strip start that consumed the CSN
  kPropagate = 2,  // strip start -> hwm advance past the CSN (t_comp)
  kApply = 3,      // hwm advance -> MV visible
};
inline constexpr size_t kFreshnessStageCount = 4;
const char* FreshnessStageName(FreshnessStage stage);

struct FreshnessOptions {
  // Monotonic nanosecond clock; tests inject a fake. Null uses
  // SteadyClockNanos.
  std::function<uint64_t()> clock;
  // Per-CSN commit-stamp ring: the last `commit_capacity` commits are
  // retained. A commit evicted before its view made it visible is counted
  // (rollview_freshness_evicted_total) instead of measured.
  size_t commit_capacity = 1 << 14;
  // Bound on retained stage-boundary events (durable frontier, per-view
  // pickup/t_comp series). Eviction rounds stamps toward "earlier", which
  // over-reports the evicted stage and under-reports the ones before it;
  // the end-to-end sum is unaffected.
  size_t boundary_capacity = 1024;
};

// A bounded series of monotone frontier events "boundary advanced to csn B
// at time t". The stamp for a CSN is the time of the *earliest* retained
// event whose boundary covers it -- the moment the frontier first passed
// the CSN. Not internally synchronized; callers hold their own mutex.
class BoundarySeries {
 public:
  explicit BoundarySeries(size_t capacity) : capacity_(capacity) {}

  // Records that the frontier reached `boundary` at `nanos`. Events that
  // do not advance the frontier are ignored (first stamp per boundary
  // wins: re-announcing an already-covered CSN never moves its stamp).
  void Push(Csn boundary, uint64_t nanos);

  // Time the frontier first covered `csn`; 0 when no retained event
  // covers it (not yet reached, or evicted -- callers clamp).
  uint64_t StampFor(Csn csn) const;

  // Drops events that can no longer be selected by StampFor for any
  // csn > through (i.e. events with boundary <= through).
  void DropCoveredThrough(Csn through);

  Csn frontier() const { return events_.empty() ? kNullCsn : events_.back().first; }
  size_t size() const { return events_.size(); }

 private:
  size_t capacity_;
  std::deque<std::pair<Csn, uint64_t>> events_;  // (boundary, nanos), ascending
};

class ViewFreshness;

// Process-wide stamp store shared by every view: the commit-ack ring and
// the durable frontier. Views register a ViewFreshness channel that owns
// the per-view series and instruments.
class FreshnessTracker {
 public:
  FreshnessTracker() : FreshnessTracker(FreshnessOptions{}) {}
  explicit FreshnessTracker(FreshnessOptions options);
  ~FreshnessTracker();

  FreshnessTracker(const FreshnessTracker&) = delete;
  FreshnessTracker& operator=(const FreshnessTracker&) = delete;

  uint64_t Now() const { return clock_(); }

  // Commit ack: called by Db::Commit once the CSN is assigned and the
  // transaction is committed (before the group-commit fsync wait, which
  // is durability, not ack). Safe from concurrent committers; CSNs may
  // arrive slightly out of order.
  void OnCommit(Csn csn);

  // Durable frontier: the WAL flusher advanced the fsynced prefix to
  // cover every commit <= up_to. Called from the flusher thread.
  void OnDurable(Csn up_to);

  // Returns the stable channel for `view_name`, creating it on first use
  // (same name returns the same channel). `visible_start` seeds the
  // visibility cursor: commits <= visible_start predate tracking.
  ViewFreshness* RegisterView(const std::string& view_name, Csn visible_start);
  ViewFreshness* FindView(const std::string& view_name) const;

  Csn last_commit_csn() const { return last_commit_.load(std::memory_order_acquire); }
  Csn durable_frontier() const;
  uint64_t commits_stamped() const { return stamped_.load(std::memory_order_relaxed); }
  size_t commit_capacity() const { return slots_.size(); }

 private:
  friend class ViewFreshness;

  struct CommitSlot {
    Csn csn = kNullCsn;
    uint64_t nanos = 0;
  };

  struct Stamp {
    uint64_t commit = 0;   // 0: never stamped (non-UOW commit) or evicted
    uint64_t durable = 0;  // 0: not yet durable (or commit missing)
    bool evicted = false;  // slot overwritten by a newer CSN
  };

  // Fills stamps for csns in [from, to]; the caller holds mu_. A missing
  // commit stamp distinguishes "never stamped" (commits that carry no
  // delta are not tracked, or whose stamp is still to come) from
  // "evicted" (the ring slot was reclaimed by a newer CSN before
  // measurement).
  void StampRangeLocked(Csn from, Csn to, std::vector<Stamp>* out) const;

  std::function<uint64_t()> clock_;
  std::atomic<Csn> last_commit_{kNullCsn};
  std::atomic<uint64_t> stamped_{0};

  // Guards slots_, max_visible_ and durable_, and orders commit stamps
  // against visibility cursor advances (ViewFreshness::OnVisible). Lock
  // order: ViewFreshness::mu_ -> mu_ -> views_mu_.
  mutable std::mutex mu_;
  std::vector<CommitSlot> slots_;      // ring keyed by csn % capacity
  Csn max_visible_ = kNullCsn;         // highest visibility cursor of any view
  BoundarySeries durable_;
  size_t boundary_capacity_;           // for per-view series

  mutable std::mutex views_mu_;        // guards views_
  std::vector<std::unique_ptr<ViewFreshness>> views_;  // stable pointers
};

// Per-view freshness channel: strip pickup + t_comp series, the
// visibility cursor, and the owned instruments
// (rollview_freshness_e2e_nanos, rollview_freshness_stage_nanos{stage},
// rollview_read_staleness_nanos, commit/eviction counters). Obtained from
// FreshnessTracker::RegisterView; pointer stable for the tracker's life.
class ViewFreshness {
 public:
  const std::string& view_name() const { return name_; }
  uint64_t Now() const { return tracker_->Now(); }
  FreshnessTracker* tracker() const { return tracker_; }

  // A propagation strip that started at `start_nanos` finished having
  // consumed every delta <= boundary. Called after the strip completes
  // (the boundary is only known then); `start_nanos` is taken before the
  // strip runs so queueing inside the strip counts as propagation, not
  // pickup.
  void OnStripStart(uint64_t start_nanos, Csn boundary);

  // The view's hwm (min over partition t_comp in parallel mode) advanced
  // to `hwm` at `nanos`.
  void OnHwmAdvance(Csn hwm, uint64_t nanos);

  struct VisibleReport {
    uint64_t commits = 0;        // commits measured into the histograms
    uint64_t evicted = 0;        // commits whose stamps were evicted
    uint64_t max_e2e_nanos = 0;  // slowest commit in this batch
  };

  // The MV became visible at mv_csn: decompose every commit in
  // (previous visible, mv_csn] into stage lags and record them. A commit
  // whose stamp arrives after this call passed it is recorded by
  // FreshnessTracker::OnCommit instead, with zero lag. Called by the
  // apply driver (one thread at a time per view).
  VisibleReport OnVisible(Csn mv_csn);

  // A reader observed the view; records the staleness the reader saw.
  void OnRead();

  // Time-domain staleness right now: age of the oldest commit not yet
  // visible in this view (0 when fully caught up). An evicted oldest
  // commit falls back to the oldest retained stamp (under-estimates).
  uint64_t StalenessNanos() const;
  int64_t StalenessMicros() const {
    return static_cast<int64_t>(StalenessNanos() / 1000);
  }

  Csn visible_csn() const { return visible_.load(std::memory_order_acquire); }

  // Owned instruments, for registry registration (borrowed form).
  LatencyHistogram* e2e_hist() { return &e2e_; }
  LatencyHistogram* stage_hist(FreshnessStage stage) {
    return &stages_[static_cast<size_t>(stage)];
  }
  LatencyHistogram* read_staleness_hist() { return &read_staleness_; }
  uint64_t commits_total() const { return commits_.value(); }
  uint64_t evicted_total() const { return evicted_.value(); }

 private:
  friend class FreshnessTracker;
  ViewFreshness(FreshnessTracker* tracker, std::string name, Csn visible_start,
                size_t boundary_capacity);

  // Records a commit stamped only after the cursor passed it: zero lag
  // in every stage, so the stages still telescope to e2e.
  void RecordLateCommit();

  FreshnessTracker* tracker_;
  std::string name_;
  const Csn start_;  // commits <= start_ predate tracking
  std::atomic<Csn> visible_;

  mutable std::mutex mu_;  // guards pickup_, comp_, serializes OnVisible
  BoundarySeries pickup_;
  BoundarySeries comp_;

  LatencyHistogram e2e_;
  LatencyHistogram stages_[kFreshnessStageCount];
  LatencyHistogram read_staleness_;
  Counter commits_;
  Counter evicted_;
};

// ---------------------------------------------------------------------------
// SLO evaluation.

struct FreshnessSloOptions {
  // Staleness target; 0 disables SLO evaluation entirely.
  uint64_t target_staleness_nanos = 0;
  // Sliding evaluation window.
  uint64_t window_nanos = 1'000'000'000ull;  // 1s
  // Error budget: the fraction of window samples allowed over target.
  // burn rate = violating-fraction / budget_fraction, so burn 1.0 means
  // the budget is being consumed exactly as fast as it accrues.
  double budget_fraction = 0.1;
  // Enter shedding at burn >= shed_burn, leave at burn <= recover_burn
  // (hysteresis so the controller doesn't flap at the boundary).
  double shed_burn = 1.0;
  double recover_burn = 0.5;
  // Minimum window samples before the evaluator acts.
  size_t min_samples = 4;
  // Bound on retained window samples.
  size_t max_samples = 256;
};

// Windowed burn-rate evaluator over observed staleness samples. Clock-free
// (times are passed in), so tests drive it deterministically. One caller
// thread observes; any thread may read the gauges.
class FreshnessSlo {
 public:
  explicit FreshnessSlo(FreshnessSloOptions options);

  bool enabled() const { return options_.target_staleness_nanos > 0; }
  const FreshnessSloOptions& options() const { return options_; }

  // Feeds one staleness sample taken at `now_nanos`. Returns true when
  // the shedding state flipped (caller re-applies shedding policy).
  bool Observe(uint64_t staleness_nanos, uint64_t now_nanos);

  bool shedding() const { return shedding_.load(std::memory_order_acquire); }
  // Whether the most recent sample violated the target.
  bool breaching() const { return breaching_.load(std::memory_order_relaxed); }
  // Burn rate scaled by 1000 (gauges are integral).
  int64_t burn_x1000() const { return burn_x1000_.load(std::memory_order_relaxed); }

  struct Stats {
    uint64_t evals = 0;
    uint64_t violations = 0;
    uint64_t shed_entries = 0;
    uint64_t shed_exits = 0;
  };
  Stats stats() const;

 private:
  FreshnessSloOptions options_;
  std::atomic<bool> shedding_{false};
  std::atomic<bool> breaching_{false};
  std::atomic<int64_t> burn_x1000_{0};

  mutable std::mutex mu_;
  std::deque<std::pair<uint64_t, bool>> window_;  // (nanos, violated)
  Stats stats_;
};

}  // namespace obs
}  // namespace rollview

#endif  // ROLLVIEW_OBS_FRESHNESS_H_
