// E11 -- executor hot-path cost: per-propagation-query wall time and row
// traffic of the join executor across the E2 interval sweep.
//
// Every propagation query runs on JoinExecutor: it splits the residual into
// pushed-down term filters, then joins each base term either by per-row
// index probes (the join column is hash-indexed) or by a hash build. This
// bench runs the E2 interval-tuning workload through it and reports
// per-query wall time and row traffic at each interval.
//
// The measured view is sigma(R |><| S) with range cuts on the payload
// columns: 1/8-selective on R's rval and 1/1024-selective on S's sval
// (rval/sval are uniform 63-bit values, so the cuts are exact). The
// executor probes the join index and re-filters every match, discarding
// 1023/1024 of the fetched S rows -- the executor's worst case for a
// selective residual.
//
// Each sweep point runs kReps repetitions, interleaved across the points in
// alternating order; JSON rows carry the median, min and max of the
// wall-time fields and the (deterministic, asserted identical) counters.
//
// Modes:
//   bench_executor                      full sweep, writes BENCH_executor.json
//   bench_executor --smoke [baseline]   one sweep point; when a committed
//                                       BENCH_executor.json path is given,
//                                       exits nonzero if deterministic
//                                       counters drift from it (the
//                                       perf-smoke ctest label).

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ivm/view_def.h"
#include "ra/expr.h"

namespace rollview {
namespace bench {

namespace {

// rval/sval are MixKey outputs, uniform over [0, 2^63), so a range cut has
// exact selectivity: admit 1/8 of R rows and 1/1024 of S rows. The asymmetry
// is deliberate -- delta-driven probes into S fetch `fanout` matches per
// driving row and the S cut then discards 1023/1024 of them. Concatenated-
// tuple layout is
// R(rkey,jkey,rval) then S(skey,jkey,sval): rval is column 2, sval column 5.
constexpr int64_t kRCut = int64_t{1} << 60;  // 2^63 / 8
constexpr int64_t kSCut = int64_t{1} << 53;  // 2^63 / 1024

SpjViewDef SelectiveViewDef(const TwoTableWorkload& workload) {
  SpjViewDef def = workload.ViewDef();
  def.selection =
      Expr::And(Expr::Compare(Expr::CmpOp::kLt, Expr::Column(2),
                              Expr::Literal(Value(kRCut))),
                Expr::Compare(Expr::CmpOp::kLt, Expr::Column(5),
                              Expr::Literal(Value(kSCut))));
  return def;
}

struct PointResult {
  Csn interval = 0;
  // Every counter below is read back out of the registry snapshot -- the
  // one serializer path shared by all benches -- not from bespoke stats
  // plumbing. The scalar copies exist for the table printer, the
  // cross-repetition determinism check, and the smoke baseline diff.
  std::string view_name;
  obs::MetricsSnapshot snapshot;
  uint64_t queries = 0;
  double total_ms = 0;
  double mean_q_us = 0;
  double exec_q_us = 0;  // mean time inside JoinExecutor::Execute per query
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t rows_copied = 0;
  uint64_t rows_borrowed = 0;
};

// The engine, loaded with the seeded workload and update history that every
// sweep point propagates.
struct Loaded {
  std::unique_ptr<Env> env;
  TwoTableWorkload workload;
  Csn t0 = kNullCsn;
  Csn t_end = kNullCsn;
};

Loaded Load() {
  Loaded l;
  l.env = std::make_unique<Env>();
  // join_domain 16 gives each delta row ~500 S matches (8000/16) to probe
  // and discard against the 1/1024 cut; the R-heavy update mix (s_every 8)
  // keeps the compensation queries' suffix scans from flooding the
  // comparison.
  l.workload = ValueOrDie(
      TwoTableWorkload::Create(&l.env->db, /*r_rows=*/10000,
                               /*s_rows=*/8000, /*join_domain=*/16,
                               /*seed=*/3),
      "create workload");
  l.env->capture.CatchUp();
  View* base_view = ValueOrDie(
      l.env->views.CreateView("V0", SelectiveViewDef(l.workload)), "view");
  CheckOk(l.env->views.Materialize(base_view), "materialize");
  l.t0 = base_view->propagate_from.load();
  RunTwoTableHistory(l.env.get(), l.workload, /*txns=*/2000, /*seed=*/17,
                     /*s_every=*/8);
  l.t_end = l.env->capture.high_water_mark();
  return l;
}

PointResult RunPoint(Loaded* l, Csn interval, int point_id) {
  View* view = ValueOrDie(
      l->env->views.CreateView("V_e11_" + std::to_string(point_id),
                               SelectiveViewDef(l->workload)),
      "view");
  view->propagate_from.store(l->t0);
  view->delta_hwm.Reset(l->t0);

  Propagator prop(&l->env->views, view,
                  std::make_unique<FixedInterval>(interval));
  Stopwatch total;
  while (prop.high_water_mark() < l->t_end) {
    if (!ValueOrDie(prop.Step(), "step")) break;
  }

  PointResult res;
  res.interval = interval;
  res.total_ms = total.ElapsedMillis();
  res.view_name = view->name;

  // The runner is quiescent now, which is exactly the contract
  // QueryRunner::RegisterMetrics documents; the snapshot is value-typed and
  // outlives the registry, runner and view.
  obs::MetricsRegistry registry;
  prop.runner()->RegisterMetrics(&registry, &registry);
  res.snapshot = registry.Snapshot();

  const obs::MetricsSnapshot& snap = res.snapshot;
  const obs::Labels v{{"view", res.view_name}};
  auto with = [&](std::initializer_list<std::pair<std::string, std::string>>
                      extra) {
    obs::Labels labels = v;
    for (const auto& kv : extra) labels.push_back(kv);
    return labels;
  };
  res.queries = snap.CounterValue("rollview_queries_total",
                                  with({{"kind", "forward"}})) +
                snap.CounterValue("rollview_queries_total",
                                  with({{"kind", "compensation"}}));
  res.mean_q_us =
      res.queries == 0
          ? 0.0
          : res.total_ms * 1000.0 / static_cast<double>(res.queries);
  res.rows_in =
      snap.CounterValue("rollview_exec_rows_total", with({{"dir", "in"}}));
  res.rows_out = snap.CounterValue("rollview_view_delta_rows_total", v);
  res.rows_copied = snap.CounterValue("rollview_exec_rows_moved_total",
                                      with({{"path", "copied"}}));
  res.rows_borrowed = snap.CounterValue("rollview_exec_rows_moved_total",
                                        with({{"path", "borrowed"}}));
  res.exec_q_us =
      res.queries == 0
          ? 0.0
          : static_cast<double>(
                snap.CounterValue("rollview_exec_nanos_total", v)) /
                1e3 / static_cast<double>(res.queries);
  return res;
}

// One sweep point: the first repetition's counters (asserted identical
// across repetitions) plus every repetition's wall times.
struct Point {
  PointResult first;
  std::vector<double> total_ms;
  std::vector<double> mean_q_us;
  std::vector<double> exec_q_us;
};

// Minimal reader for the committed BENCH_executor.json (JsonReport writes
// one flat row object per line): returns the raw value text for `key` in
// the first row whose interval matches, or "" if absent.
struct BaselineRow {
  uint64_t interval = 0;
  std::vector<std::pair<std::string, std::string>> fields;

  std::string Get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return v;
    }
    return "";
  }
};

std::vector<BaselineRow> LoadBaseline(const std::string& path) {
  std::vector<BaselineRow> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  while (std::getline(in, line)) {
    size_t open = line.find('{');
    if (open == std::string::npos || line.find("\"experiment\"") !=
        std::string::npos) {
      continue;
    }
    BaselineRow row;
    size_t pos = open;
    while (true) {
      size_t kq = line.find('"', pos);
      if (kq == std::string::npos) break;
      size_t kend = line.find('"', kq + 1);
      if (kend == std::string::npos) break;
      std::string key = line.substr(kq + 1, kend - kq - 1);
      size_t colon = line.find(':', kend);
      if (colon == std::string::npos) break;
      size_t vstart = line.find_first_not_of(' ', colon + 1);
      size_t vend = line.find_first_of(",}", vstart);
      if (vstart == std::string::npos || vend == std::string::npos) break;
      std::string value = line.substr(vstart, vend - vstart);
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      }
      row.fields.emplace_back(key, value);
      pos = vend;
    }
    if (!row.fields.empty()) {
      row.interval = std::strtoull(row.Get("interval").c_str(), nullptr, 10);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

bool CheckAgainstBaseline(const std::vector<BaselineRow>& baseline,
                          const PointResult& res) {
  const BaselineRow* match = nullptr;
  for (const BaselineRow& row : baseline) {
    if (row.interval == res.interval) {
      match = &row;
      break;
    }
  }
  if (match == nullptr) {
    std::fprintf(stderr,
                 "SMOKE FAIL: no baseline row for interval=%llu\n",
                 static_cast<unsigned long long>(res.interval));
    return false;
  }
  bool ok = true;
  auto expect_int = [&](const char* key, uint64_t got) {
    std::string want = match->Get(key);
    if (want.empty()) return;  // baseline predates the counter; skip
    if (std::strtoull(want.c_str(), nullptr, 10) != got) {
      std::fprintf(stderr,
                   "SMOKE FAIL: interval=%llu %s drifted: baseline %s,"
                   " got %llu\n",
                   static_cast<unsigned long long>(res.interval), key,
                   want.c_str(), static_cast<unsigned long long>(got));
      ok = false;
    }
  };
  // Deterministic counters only: the workload and propagation schedule are
  // seeded, so any drift is a behavior change, not noise. Wall-clock fields
  // are deliberately not compared.
  expect_int("queries", res.queries);
  expect_int("rows_in", res.rows_in);
  expect_int("rows_out", res.rows_out);
  expect_int("rows_copied", res.rows_copied);
  expect_int("rows_borrowed", res.rows_borrowed);
  return ok;
}

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      baseline_path = argv[i];
    }
  }

  Banner("E11: bench_executor",
         "Per-propagation-query cost of the join executor across the E2 "
         "interval sweep.");

  Loaded loaded = Load();
  std::printf("history: %llu commits, %zu R-delta rows, %zu S-delta rows\n\n",
              static_cast<unsigned long long>(loaded.t_end - loaded.t0),
              loaded.env->db.delta(loaded.workload.r)->size(),
              loaded.env->db.delta(loaded.workload.s)->size());

  std::vector<Csn> intervals =
      smoke ? std::vector<Csn>{Csn(64)}
            : std::vector<Csn>{Csn(4), Csn(64), loaded.t_end - loaded.t0};

  // Repetitions interleave across the sweep points, alternating their
  // order, so host drift (thermal, other tenants) spreads over every point
  // instead of biasing the ones that run later. Counters are deterministic
  // and asserted identical across repetitions.
  constexpr int kReps = 5;
  const size_t n = intervals.size();
  std::vector<Point> points(n);
  int point_id = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t pos = 0; pos < n; ++pos) {
      const size_t ii = rep % 2 == 0 ? pos : n - 1 - pos;
      PointResult res = RunPoint(&loaded, intervals[ii], point_id++);
      Point& pt = points[ii];
      pt.total_ms.push_back(res.total_ms);
      pt.mean_q_us.push_back(res.mean_q_us);
      pt.exec_q_us.push_back(res.exec_q_us);
      if (rep == 0) {
        pt.first = std::move(res);
        continue;
      }
      if (res.queries != pt.first.queries ||
          res.rows_out != pt.first.rows_out ||
          res.rows_copied != pt.first.rows_copied) {
        std::fprintf(stderr, "FAIL: nondeterministic counters across reps "
                             "(interval=%llu)\n",
                     static_cast<unsigned long long>(res.interval));
        return 1;
      }
    }
  }

  TablePrinter table({"interval", "queries", "mean_q_us", "min_q_us",
                      "max_q_us", "exec_q_us", "rows_cp", "rows_bw",
                      "total_ms"});
  table.PrintHeader();
  JsonReport report("executor");
  for (const Point& pt : points) {
    const PointResult& res = pt.first;
    const Spread total = SpreadOf(pt.total_ms);
    const Spread mean_q = SpreadOf(pt.mean_q_us);
    const Spread exec_q = SpreadOf(pt.exec_q_us);
    table.PrintRow({FmtInt(res.interval), FmtInt(res.queries),
                    Fmt(mean_q.median, 1), Fmt(mean_q.min, 1),
                    Fmt(mean_q.max, 1), Fmt(exec_q.median, 1),
                    FmtInt(res.rows_copied), FmtInt(res.rows_borrowed),
                    Fmt(total.median)});
    report.BeginRow();
    RegistryRowEmitter emit(&report, &res.snapshot);
    const obs::Labels v{{"view", res.view_name}};
    emit.Int("interval", res.interval);
    emit.Int("reps", kReps);
    emit.CounterSum("queries", "rollview_queries_total",
                    {{{"view", res.view_name}, {"kind", "forward"}},
                     {{"view", res.view_name}, {"kind", "compensation"}}});
    emit.Num("total_ms", total.median);
    emit.Num("total_ms_min", total.min);
    emit.Num("total_ms_max", total.max);
    emit.Num("mean_q_us", mean_q.median, 1);
    emit.Num("mean_q_us_min", mean_q.min, 1);
    emit.Num("mean_q_us_max", mean_q.max, 1);
    emit.Num("exec_q_us", exec_q.median, 1);
    emit.Num("exec_q_us_min", exec_q.min, 1);
    emit.Num("exec_q_us_max", exec_q.max, 1);
    emit.Counter("rows_in", "rollview_exec_rows_total",
                 {{"view", res.view_name}, {"dir", "in"}});
    emit.Counter("rows_out", "rollview_view_delta_rows_total", v);
    emit.Counter("rows_copied", "rollview_exec_rows_moved_total",
                 {{"view", res.view_name}, {"path", "copied"}});
    emit.Counter("rows_borrowed", "rollview_exec_rows_moved_total",
                 {{"view", res.view_name}, {"path", "borrowed"}});
    emit.Counter("bytes_copied", "rollview_exec_bytes_moved_total",
                 {{"view", res.view_name}, {"path", "copied"}});
    emit.Counter("bytes_borrowed", "rollview_exec_bytes_moved_total",
                 {{"view", res.view_name}, {"path", "borrowed"}});
  }
  std::printf("\n");

  bool ok = true;
  if (smoke && !baseline_path.empty()) {
    std::vector<BaselineRow> baseline = LoadBaseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "SMOKE FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ok = false;
    } else {
      for (const Point& pt : points) {
        if (!CheckAgainstBaseline(baseline, pt.first)) ok = false;
      }
      if (ok) std::printf("smoke: counters match %s\n", baseline_path.c_str());
    }
  }

  if (!smoke) report.Write();
  return ok ? 0 : 1;
}

}  // namespace bench
}  // namespace rollview

int main(int argc, char** argv) {
  return rollview::bench::Main(argc, argv);
}
