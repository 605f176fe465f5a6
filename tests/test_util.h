// Copyright 2026 The rollview Authors.
//
// Shared test fixtures: an engine + capture + view-manager bundle, scripted
// update helpers, and the golden timed-delta-table invariant checker
// (Definition 4.2): for all a < b within the settled window,
//   phi(sigma_{a,b}(Delta^V) + V_a) = phi(V_b),
// where V_t is recomputed from MVCC snapshots (the engine retains versions
// so the oracle never depends on the code under test).

#ifndef ROLLVIEW_TESTS_TEST_UTIL_H_
#define ROLLVIEW_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "capture/log_capture.h"
#include "ivm/apply.h"
#include "ivm/baselines.h"
#include "ivm/view_manager.h"
#include "ra/net_effect.h"
#include "storage/db.h"
#include "workload/schemas.h"

namespace rollview {

// Engine + capture + views, wired together. Capture is stepped manually by
// default (deterministic); call StartCapture() for background mode.
class TestEnv {
 public:
  explicit TestEnv(CaptureOptions capture_options = CaptureOptions{},
                   DbOptions db_options = DbOptions{})
      : db_(std::make_unique<Db>(db_options)),
        capture_(std::make_unique<LogCapture>(db_.get(), capture_options)),
        views_(std::make_unique<ViewManager>(db_.get(), capture_.get())) {}

  Db* db() { return db_.get(); }
  LogCapture* capture() { return capture_.get(); }
  ViewManager* views() { return views_.get(); }

  void StartCapture() { capture_->Start(); }

  // Drains the WAL into the delta tables.
  void CatchUpCapture() { capture_->CatchUp(); }

 private:
  std::unique_ptr<Db> db_;
  std::unique_ptr<LogCapture> capture_;
  std::unique_ptr<ViewManager> views_;
};

// phi(V_t) recomputed from snapshots; FATAL on engine errors.
inline DeltaRows OracleViewState(Db* db, const View* view, Csn t) {
  Result<DeltaRows> r = SnapshotViewState(db, view->resolved, t);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r).value() : DeltaRows{};
}

// Checks Definition 4.2 for the window (a, b].
inline ::testing::AssertionResult CheckTimedDeltaWindow(Db* db,
                                                        const View* view,
                                                        Csn a, Csn b) {
  DeltaRows va = OracleViewState(db, view, a);
  DeltaRows vb = OracleViewState(db, view, b);
  DeltaRows window = view->view_delta->Scan(CsnRange{a, b});
  DeltaRows rolled = ApplyDelta(va, window);
  if (!NetEquivalent(rolled, vb)) {
    return ::testing::AssertionFailure()
           << "phi(sigma_{" << a << "," << b << "}(Delta^V) + V_" << a
           << ") != phi(V_" << b << "): rolled " << rolled.size()
           << " distinct tuples, expected " << vb.size() << " (window has "
           << window.size() << " delta rows)";
  }
  return ::testing::AssertionSuccess();
}

// Checks Definition 4.2 across a sweep of sub-windows of [from, to]:
// consecutive pairs of sample points spaced `stride` apart, plus the full
// window and a few straddling windows.
inline ::testing::AssertionResult CheckTimedDeltaSweep(Db* db,
                                                       const View* view,
                                                       Csn from, Csn to,
                                                       Csn stride = 1) {
  if (to < from) {
    return ::testing::AssertionFailure()
           << "bad sweep window (" << from << ", " << to << "]";
  }
  for (Csn a = from; a <= to; a += stride) {
    Csn b = std::min<Csn>(a + stride, to);
    if (b <= a) break;
    auto r = CheckTimedDeltaWindow(db, view, a, b);
    if (!r) return r;
  }
  // The whole window and two asymmetric straddles.
  auto r = CheckTimedDeltaWindow(db, view, from, to);
  if (!r) return r;
  if (to - from >= 3) {
    Csn mid = from + (to - from) / 3;
    r = CheckTimedDeltaWindow(db, view, from, mid);
    if (!r) return r;
    r = CheckTimedDeltaWindow(db, view, mid, to);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

#define ASSERT_OK(expr)                                         \
  do {                                                          \
    ::rollview::Status status_ = (expr);                        \
    ASSERT_TRUE(status_.ok()) << status_.ToString();            \
  } while (false)

#define EXPECT_OK(expr)                                         \
  do {                                                          \
    ::rollview::Status status_ = (expr);                        \
    EXPECT_TRUE(status_.ok()) << status_.ToString();            \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                         \
  ASSERT_OK_AND_ASSIGN_IMPL(ROLLVIEW_CONCAT(r__, __LINE__), lhs, expr)
#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, expr)               \
  auto tmp = (expr);                                            \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();             \
  lhs = std::move(tmp).value();

}  // namespace rollview

#endif  // ROLLVIEW_TESTS_TEST_UTIL_H_
