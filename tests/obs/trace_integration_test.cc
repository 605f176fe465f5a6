// Copyright 2026 The rollview Authors.
//
// The tracing acceptance test: a supervised MaintenanceService under an
// armed FaultInjector must journal one complete span tree per propagation
// step attempt -- ok, skipped-empty, retried, and undone alike -- with the
// span structure matching what actually happened: failed attempts carry a
// failed root and an error, retried attempts carry the supervisor's streak
// context, cancelled attempts carry the undo span, and the per-driver
// transient counts line up 1:1 with the journaled error traces.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "harness/worker.h"
#include "ivm/maintenance.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace rollview {
namespace {

// Structural invariants every journaled trace must satisfy, whatever its
// outcome: a root at id 1, children id-ordered with earlier parents, and
// every span closed.
void ExpectWellFormed(const obs::StepTrace& t) {
  ASSERT_FALSE(t.spans.empty());
  EXPECT_LE(t.spans.size(), obs::StepTracer::kMaxSpansPerStep);
  EXPECT_EQ(t.root().id, 1u);
  EXPECT_EQ(t.root().parent, 0u);
  EXPECT_EQ(t.root().kind, t.root_kind);
  for (size_t i = 0; i < t.spans.size(); ++i) {
    const obs::Span& s = t.spans[i];
    EXPECT_EQ(s.id, static_cast<uint32_t>(i + 1));
    if (i > 0) {
      EXPECT_GE(s.parent, 1u);
      EXPECT_LT(s.parent, s.id);
    }
    EXPECT_GE(s.end_nanos, s.start_nanos);
  }
}

bool HasSpanOfKind(const obs::StepTrace& t, obs::SpanKind kind) {
  for (const obs::Span& s : t.spans) {
    if (s.id != t.root().id && s.kind == kind) return true;
  }
  return false;
}

TEST(TraceIntegrationTest, FaultStormJournalsCompleteSpanTrees) {
  TestEnv env;

  // Aborts only: every injected fault lands inside a propagation
  // transaction, i.e. inside an active step trace, so the journal must
  // account for every transient the supervisor sees.
  FaultInjector::Options fopts;
  fopts.seed = 0x77ace5;
  fopts.commit_abort_probability = 0.15;
  FaultInjector fi(fopts);
  env.db()->SetFaultInjector(&fi);

  ASSERT_OK_AND_ASSIGN(TwoTableWorkload workload,
                       TwoTableWorkload::Create(env.db(), 80, 40, 8, 311));
  env.CatchUpCapture();
  ASSERT_OK_AND_ASSIGN(View* view,
                       env.views()->CreateView("V", workload.ViewDef()));
  ASSERT_OK(env.views()->Materialize(view));
  env.StartCapture();

  obs::MetricsRegistry registry;  // declared before the service (DropOwner)
  MaintenanceService::Options mopts;
  mopts.runner.max_retries = 0;  // every transient reaches the supervisor
  mopts.target_rows_per_query = 32;
  mopts.backoff.initial = std::chrono::microseconds(100);
  mopts.backoff.max = std::chrono::microseconds(5000);
  mopts.checkpoint_every_steps = 4;  // cadence checkpoints get root traces
  mopts.apply_continuously = true;
  // Large enough that nothing is evicted: "every step attempt" is only
  // checkable if the ring never wraps.
  mopts.trace_journal_capacity = 1 << 16;
  MaintenanceService service(env.views(), view, mopts);
  service.RegisterMetrics(&registry);
  service.Start();

  std::vector<std::unique_ptr<UpdateStream>> streams;
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.RStream(1, 411), 411));
  streams.push_back(std::make_unique<UpdateStream>(
      env.db(), workload.SStream(2, 412), 412));
  std::vector<std::unique_ptr<Worker>> updaters;
  for (auto& stream : streams) {
    UpdateStream* s = stream.get();
    Worker::Options opts;
    opts.name = "updater";
    opts.target_ops_per_sec = 150.0;
    updaters.push_back(std::make_unique<Worker>(
        [s] { return s->RunTransaction(); }, opts));
  }
  for (auto& w : updaters) w->Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The undo path needs a step whose forward query committed before one of
  // its compensation queries took an injected abort, and compensation only
  // runs when the other relation changed inside the strip's short drift
  // window. Keep the storm going (bounded) until the journal holds such a
  // step, so the undo assertions below always have one to check.
  auto has_undo = [&service] {
    for (const obs::StepTrace& t : service.trace_journal()->Snapshot()) {
      if (t.undone) return true;
    }
    return false;
  };
  const auto storm_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!has_undo() && std::chrono::steady_clock::now() < storm_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  for (auto& w : updaters) ASSERT_OK(w->Join());

  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  fi.set_armed(false);
  ASSERT_OK(service.Drain(env.db()->stable_csn()));
  ASSERT_OK(service.Stop());

  const obs::TraceJournal* journal = service.trace_journal();
  ASSERT_NE(journal, nullptr);
  ASSERT_LT(journal->recorded(), journal->capacity());  // nothing evicted
  std::vector<obs::StepTrace> traces = journal->Snapshot();
  ASSERT_EQ(traces.size(), journal->recorded());
  ASSERT_FALSE(traces.empty());

  uint64_t step_ok = 0, step_skipped = 0, step_transient = 0;
  uint64_t ckpt_transient = 0, ckpt_total = 0;
  uint64_t apply_ok = 0, apply_transient = 0;
  uint64_t retried = 0, undone = 0, rows_published = 0;
  for (const obs::StepTrace& t : traces) {
    ExpectWellFormed(t);
    EXPECT_EQ(t.view, "V");
    if (t.retries > 0) ++retried;

    switch (t.root_kind) {
      case obs::SpanKind::kStep: {
        // Root carries the interval the propagator chose.
        EXPECT_GE(t.root().Attr("relation"), 0);
        EXPECT_GT(t.root().Attr("t_b"), t.root().Attr("t_a"));
        if (t.outcome == obs::StepOutcome::kOk) {
          ++step_ok;
          rows_published += t.rows;
          EXPECT_TRUE(t.root().ok);
          EXPECT_TRUE(t.error.empty());
          // A row-publishing step ran at least a forward query and
          // committed its rows through the WAL-append path.
          if (t.rows > 0) {
            EXPECT_TRUE(HasSpanOfKind(t, obs::SpanKind::kForward));
            EXPECT_TRUE(HasSpanOfKind(t, obs::SpanKind::kWalAppend));
          }
          // WAL appends happen inside a query transaction, so their parent
          // must be a query span, never the root.
          for (const obs::Span& s : t.spans) {
            if (s.kind != obs::SpanKind::kWalAppend) continue;
            const obs::Span& parent = t.spans[s.parent - 1];
            EXPECT_TRUE(parent.kind == obs::SpanKind::kForward ||
                        parent.kind == obs::SpanKind::kCompensation)
                << "wal_append parented on " << SpanKindName(parent.kind);
          }
        } else if (t.outcome == obs::StepOutcome::kSkippedEmpty) {
          ++step_skipped;
          EXPECT_TRUE(t.root().ok);  // an empty strip is a healthy outcome
          EXPECT_EQ(t.rows, 0u);
          EXPECT_EQ(t.spans.size(), 1u);  // no queries ran
        } else {
          ASSERT_EQ(t.outcome, obs::StepOutcome::kTransientError)
              << "unexpected permanent error: " << t.error;
          ++step_transient;
          EXPECT_FALSE(t.root().ok);
          EXPECT_FALSE(t.error.empty());
        }
        if (t.undone) {
          ++undone;
          // Cancellation runs while the failing attempt's trace is active,
          // so the undo span sits in the same (failed) trace.
          EXPECT_NE(t.outcome, obs::StepOutcome::kOk);
          EXPECT_TRUE(HasSpanOfKind(t, obs::SpanKind::kUndo) ||
                      t.dropped_spans > 0);
        }
        break;
      }
      case obs::SpanKind::kCheckpoint:
        ++ckpt_total;
        if (t.outcome == obs::StepOutcome::kTransientError) ++ckpt_transient;
        break;
      case obs::SpanKind::kApply:
        EXPECT_GE(t.root().Attr("t_b"), t.root().Attr("t_a"));
        if (t.outcome == obs::StepOutcome::kOk) {
          ++apply_ok;
        } else {
          EXPECT_EQ(t.outcome, obs::StepOutcome::kTransientError);
          ++apply_transient;
        }
        break;
      default:
        ADD_FAILURE() << "unexpected root kind: " << SpanKindName(t.root_kind);
    }
  }

  // The storm happened, and retried/undone attempts are in the journal.
  EXPECT_GT(fi.GetStats().injected_aborts, 0u);
  EXPECT_GT(step_ok, 0u);
  EXPECT_GT(step_transient, 0u);
  EXPECT_GT(retried, 0u);
  EXPECT_GT(undone, 0u);
  EXPECT_GT(rows_published, 0u);
  EXPECT_GT(apply_ok, 0u);
  EXPECT_GT(ckpt_total, 0u);

  // "Every step attempt produces a trace": the only transients the
  // supervisor counted are the ones journaled as error traces, per driver.
  DriverStats ps = service.propagate_driver_stats();
  DriverStats as = service.apply_driver_stats();
  EXPECT_EQ(step_transient + ckpt_transient, ps.transient_errors);
  EXPECT_EQ(apply_transient, as.transient_errors);

  // The derived journal counter a scrape sees agrees with the journal.
  EXPECT_EQ(registry.Snapshot().CounterValue("rollview_trace_steps_total",
                                             {{"view", "V"}}),
            journal->recorded());

  env.db()->SetFaultInjector(nullptr);
}

}  // namespace
}  // namespace rollview
