// Copyright 2026 The rollview Authors.

#include "obs/freshness.h"

#include <algorithm>
#include <chrono>

namespace rollview {
namespace obs {

uint64_t SteadyClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* FreshnessStageName(FreshnessStage stage) {
  switch (stage) {
    case FreshnessStage::kDurable:
      return "durable";
    case FreshnessStage::kPickup:
      return "pickup";
    case FreshnessStage::kPropagate:
      return "propagate";
    case FreshnessStage::kApply:
      return "apply";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// BoundarySeries

void BoundarySeries::Push(Csn boundary, uint64_t nanos) {
  if (boundary == kNullCsn) return;
  if (!events_.empty() && boundary <= events_.back().first) return;
  events_.emplace_back(boundary, nanos);
  while (events_.size() > capacity_) events_.pop_front();
}

uint64_t BoundarySeries::StampFor(Csn csn) const {
  // First event whose boundary covers csn is the moment the frontier
  // passed it.
  auto it = std::lower_bound(
      events_.begin(), events_.end(), csn,
      [](const std::pair<Csn, uint64_t>& e, Csn c) { return e.first < c; });
  if (it == events_.end()) return 0;
  return it->second;
}

void BoundarySeries::DropCoveredThrough(Csn through) {
  while (!events_.empty() && events_.front().first <= through) {
    events_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// FreshnessTracker

FreshnessTracker::FreshnessTracker(FreshnessOptions options)
    : clock_(options.clock ? std::move(options.clock) : SteadyClockNanos),
      slots_(std::max<size_t>(1, options.commit_capacity)),
      durable_(std::max<size_t>(1, options.boundary_capacity)),
      boundary_capacity_(std::max<size_t>(1, options.boundary_capacity)) {}

FreshnessTracker::~FreshnessTracker() = default;

void FreshnessTracker::OnCommit(Csn csn) {
  if (csn == kNullCsn) return;
  const uint64_t now = clock_();
  {
    std::lock_guard<std::mutex> lk(mu_);
    CommitSlot& slot = slots_[csn % slots_.size()];
    // A stamp so late that a newer CSN already owns the slot is lost; the
    // view that reaches it counts it evicted.
    if (slot.csn < csn) {
      slot.csn = csn;
      slot.nanos = now;
    }
    // A committer preempted between CSN assignment and this stamp can be
    // passed by a view's visibility cursor, which then read the slot as
    // unstamped (no freshness obligation). OnVisible reads the stamps and
    // advances its cursor under mu_, so exactly one side sees this commit:
    // either that read found the stamp, or the cursor read here covers it
    // and the commit is recorded now, with zero lag (it was visible before
    // it was acked). A CSN a whole ring behind the cursor is beyond the
    // range OnVisible can count in either direction and is dropped.
    if (csn <= max_visible_) {
      const Csn cap = static_cast<Csn>(slots_.size());
      std::lock_guard<std::mutex> vlk(views_mu_);
      for (const auto& v : views_) {
        const Csn visible = v->visible_.load(std::memory_order_acquire);
        if (csn > v->start_ && csn <= visible && visible - csn < cap) {
          v->RecordLateCommit();
        }
      }
    }
  }
  // Committers can race past each other between CSN assignment and the
  // stamp; fold the max so last_commit_ stays the true frontier.
  Csn prev = last_commit_.load(std::memory_order_relaxed);
  while (csn > prev && !last_commit_.compare_exchange_weak(
                           prev, csn, std::memory_order_release,
                           std::memory_order_relaxed)) {
  }
  stamped_.fetch_add(1, std::memory_order_relaxed);
}

void FreshnessTracker::OnDurable(Csn up_to) {
  if (up_to == kNullCsn) return;
  const uint64_t now = clock_();
  std::lock_guard<std::mutex> lk(mu_);
  durable_.Push(up_to, now);
}

Csn FreshnessTracker::durable_frontier() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_.frontier();
}

void FreshnessTracker::StampRangeLocked(Csn from, Csn to,
                                        std::vector<Stamp>* out) const {
  out->clear();
  if (to < from) return;
  out->reserve(static_cast<size_t>(to - from) + 1);
  for (Csn csn = from; csn <= to; ++csn) {
    const CommitSlot& slot = slots_[csn % slots_.size()];
    Stamp s;
    if (slot.csn == csn) {
      s.commit = slot.nanos;
      s.durable = durable_.StampFor(csn);
    } else if (slot.csn > csn) {
      // Within a capacity-bounded window only a CSN past the window's end
      // can share this slot, so a larger occupant means csn's stamp was
      // reclaimed before measurement -- evicted, not untracked.
      s.evicted = true;
    }
    out->push_back(s);
    if (csn == kMaxCsn) break;
  }
}

ViewFreshness* FreshnessTracker::RegisterView(const std::string& view_name,
                                              Csn visible_start) {
  std::lock_guard<std::mutex> lk(views_mu_);
  for (const auto& v : views_) {
    if (v->name_ == view_name) return v.get();
  }
  views_.push_back(std::unique_ptr<ViewFreshness>(
      new ViewFreshness(this, view_name, visible_start, boundary_capacity_)));
  return views_.back().get();
}

ViewFreshness* FreshnessTracker::FindView(const std::string& view_name) const {
  std::lock_guard<std::mutex> lk(views_mu_);
  for (const auto& v : views_) {
    if (v->name_ == view_name) return v.get();
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// ViewFreshness

ViewFreshness::ViewFreshness(FreshnessTracker* tracker, std::string name,
                             Csn visible_start, size_t boundary_capacity)
    : tracker_(tracker),
      name_(std::move(name)),
      start_(visible_start),
      visible_(visible_start),
      pickup_(boundary_capacity),
      comp_(boundary_capacity) {}

void ViewFreshness::OnStripStart(uint64_t start_nanos, Csn boundary) {
  std::lock_guard<std::mutex> lk(mu_);
  pickup_.Push(boundary, start_nanos);
}

void ViewFreshness::OnHwmAdvance(Csn hwm, uint64_t nanos) {
  std::lock_guard<std::mutex> lk(mu_);
  comp_.Push(hwm, nanos);
}

ViewFreshness::VisibleReport ViewFreshness::OnVisible(Csn mv_csn) {
  VisibleReport report;
  if (mv_csn <= visible_.load(std::memory_order_relaxed)) return report;
  const uint64_t now = tracker_->Now();

  std::lock_guard<std::mutex> lk(mu_);
  const Csn from = visible_.load(std::memory_order_relaxed);
  if (mv_csn <= from) return report;

  // Anything older than the commit ring can hold was lost unmeasured.
  // Counted as evicted wholesale -- an upper bound, since untracked
  // (non-delta) commits in the skipped range are indistinguishable from
  // reclaimed stamps once the slots are gone.
  const Csn cap = static_cast<Csn>(tracker_->commit_capacity());
  Csn first = from + 1;
  if (mv_csn - from > cap) {
    report.evicted += (mv_csn - from) - cap;
    first = mv_csn - cap + 1;
  }

  std::vector<FreshnessTracker::Stamp> stamps;
  {
    // Reading the stamps and advancing the cursor under the tracker's
    // mutex is what lets a concurrent late OnCommit tell which side owns
    // its commit (see FreshnessTracker::OnCommit).
    std::lock_guard<std::mutex> tlk(tracker_->mu_);
    tracker_->StampRangeLocked(first, mv_csn, &stamps);
    visible_.store(mv_csn, std::memory_order_release);
    tracker_->max_visible_ = std::max(tracker_->max_visible_, mv_csn);
  }

  for (Csn csn = first; csn <= mv_csn; ++csn) {
    uint64_t commit_ts = stamps[static_cast<size_t>(csn - first)].commit;
    uint64_t durable_ts = stamps[static_cast<size_t>(csn - first)].durable;
    if (commit_ts == 0) {
      // Never stamped (a commit that carried no delta) -- no freshness
      // obligation -- unless the slot was reclaimed, which loses a stamp
      // we owed a measurement.
      if (stamps[static_cast<size_t>(csn - first)].evicted) ++report.evicted;
      continue;
    }
    // Clamp each stage monotone so the four lags telescope to exactly
    // visible - commit. A zero (missing) stamp clamps to the previous
    // stage, i.e. contributes zero lag.
    if (durable_ts < commit_ts) durable_ts = commit_ts;
    uint64_t pickup_ts = pickup_.StampFor(csn);
    if (pickup_ts < durable_ts) pickup_ts = durable_ts;
    uint64_t comp_ts = comp_.StampFor(csn);
    if (comp_ts < pickup_ts) comp_ts = pickup_ts;
    uint64_t visible_ts = now;
    if (visible_ts < comp_ts) visible_ts = comp_ts;

    const uint64_t e2e = visible_ts - commit_ts;
    e2e_.Record(e2e);
    stages_[static_cast<size_t>(FreshnessStage::kDurable)].Record(durable_ts -
                                                                  commit_ts);
    stages_[static_cast<size_t>(FreshnessStage::kPickup)].Record(pickup_ts -
                                                                 durable_ts);
    stages_[static_cast<size_t>(FreshnessStage::kPropagate)].Record(comp_ts -
                                                                    pickup_ts);
    stages_[static_cast<size_t>(FreshnessStage::kApply)].Record(visible_ts -
                                                                comp_ts);
    ++report.commits;
    if (e2e > report.max_e2e_nanos) report.max_e2e_nanos = e2e;
  }

  commits_.Add(report.commits);
  evicted_.Add(report.evicted);
  // Events covering only <= mv_csn can never be selected again.
  pickup_.DropCoveredThrough(mv_csn);
  comp_.DropCoveredThrough(mv_csn);
  return report;
}

void ViewFreshness::RecordLateCommit() {
  e2e_.Record(0);
  for (LatencyHistogram& stage : stages_) stage.Record(0);
  commits_.Add(1);
}

void ViewFreshness::OnRead() { read_staleness_.Record(StalenessNanos()); }

uint64_t ViewFreshness::StalenessNanos() const {
  const Csn last = tracker_->last_commit_csn();
  const Csn seen = visible_.load(std::memory_order_acquire);
  if (last == kNullCsn || seen >= last) return 0;
  // Age of the oldest unseen commit. If it was evicted from the ring the
  // oldest *retained* stamp stands in (a lower bound on true staleness).
  const Csn cap = static_cast<Csn>(tracker_->commit_capacity());
  Csn oldest = seen + 1;
  if (last - seen > cap) oldest = last - cap + 1;
  std::vector<std::pair<uint64_t, uint64_t>> stamps;
  uint64_t oldest_ts = 0;
  {
    std::lock_guard<std::mutex> lk(tracker_->mu_);
    for (Csn csn = oldest; csn <= last && oldest_ts == 0; ++csn) {
      const FreshnessTracker::CommitSlot& slot =
          tracker_->slots_[csn % tracker_->slots_.size()];
      if (slot.csn == csn) oldest_ts = slot.nanos;
    }
  }
  if (oldest_ts == 0) return 0;
  const uint64_t now = tracker_->Now();
  return now > oldest_ts ? now - oldest_ts : 0;
}

// ---------------------------------------------------------------------------
// FreshnessSlo

FreshnessSlo::FreshnessSlo(FreshnessSloOptions options)
    : options_(options) {
  if (options_.budget_fraction <= 0.0) options_.budget_fraction = 1e-9;
  if (options_.max_samples == 0) options_.max_samples = 1;
  if (options_.window_nanos == 0) options_.window_nanos = 1;
}

bool FreshnessSlo::Observe(uint64_t staleness_nanos, uint64_t now_nanos) {
  if (!enabled()) return false;
  const bool violated = staleness_nanos > options_.target_staleness_nanos;
  breaching_.store(violated, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.evals;
  if (violated) ++stats_.violations;
  window_.emplace_back(now_nanos, violated);
  const uint64_t horizon =
      now_nanos > options_.window_nanos ? now_nanos - options_.window_nanos : 0;
  while (!window_.empty() &&
         (window_.front().first < horizon || window_.size() > options_.max_samples)) {
    window_.pop_front();
  }

  size_t bad = 0;
  for (const auto& s : window_) bad += s.second ? 1 : 0;
  const double frac =
      window_.empty() ? 0.0 : static_cast<double>(bad) / window_.size();
  const double burn = frac / options_.budget_fraction;
  burn_x1000_.store(static_cast<int64_t>(burn * 1000.0),
                    std::memory_order_relaxed);

  if (window_.size() < options_.min_samples) return false;

  const bool was = shedding_.load(std::memory_order_relaxed);
  bool now_shed = was;
  if (!was && burn >= options_.shed_burn) now_shed = true;
  if (was && burn <= options_.recover_burn) now_shed = false;
  if (now_shed == was) return false;
  shedding_.store(now_shed, std::memory_order_release);
  if (now_shed) {
    ++stats_.shed_entries;
  } else {
    ++stats_.shed_exits;
  }
  return true;
}

FreshnessSlo::Stats FreshnessSlo::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace obs
}  // namespace rollview
