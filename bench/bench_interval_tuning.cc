// E2 -- the propagation interval as a tuning knob (paper Sec. 3.3).
//
// "Choosing small intervals leads to many small propagation queries.
//  Choosing larger intervals leads to fewer, larger queries. Thus, the
//  interval acts as a parameter that can be tuned to balance query
//  execution overhead against data contention."
//
// Fixed captured history; sweep the interval length delta and measure the
// query count, per-query cost, and the largest single propagation
// transaction (the contention proxy: how long base-table S locks are held
// in one transaction).

#include <algorithm>

#include "bench_util.h"

namespace rollview {
namespace bench {

void Main() {
  Banner("E2: bench_interval_tuning",
         "Interval length vs query count / per-query cost / largest single "
         "propagation transaction (lock-hold proxy), fixed history.");

  Env env;
  TwoTableWorkload workload = ValueOrDie(
      TwoTableWorkload::Create(&env.db, /*r_rows=*/10000, /*s_rows=*/4000,
                               /*join_domain=*/512, /*seed=*/3),
      "create workload");
  env.capture.CatchUp();

  // One history shared by every sweep point.
  View* base_view =
      ValueOrDie(env.views.CreateView("V0", workload.ViewDef()), "view");
  CheckOk(env.views.Materialize(base_view), "materialize");
  Csn t0 = base_view->propagate_from.load();
  RunTwoTableHistory(&env, workload, /*txns=*/1000, /*seed=*/17);
  Csn t_end = env.capture.high_water_mark();
  std::printf("history: %llu commits, %zu R-delta rows, %zu S-delta rows\n\n",
              static_cast<unsigned long long>(t_end - t0),
              env.db.delta(workload.r)->size(),
              env.db.delta(workload.s)->size());

  TablePrinter table({"interval", "queries", "fwd", "comp", "rows_in",
                      "rows_out", "total_ms", "mean_q_us", "max_step_ms"});
  table.PrintHeader();

  for (Csn delta : {Csn(1), Csn(4), Csn(16), Csn(64), Csn(256),
                    t_end - t0}) {
    View* view = ValueOrDie(
        env.views.CreateView("V_d" + std::to_string(delta),
                             workload.ViewDef()),
        "view");
    view->propagate_from.store(t0);
    view->delta_hwm.Reset(t0);

    Propagator prop(&env.views, view, std::make_unique<FixedInterval>(delta));
    Stopwatch total;
    double max_step_ms = 0;
    while (prop.high_water_mark() < t_end) {
      Stopwatch step;
      bool advanced = ValueOrDie(prop.Step(), "step");
      max_step_ms = std::max(max_step_ms, step.ElapsedMillis());
      if (!advanced) break;
    }
    double total_ms = total.ElapsedMillis();
    const RunnerStats& rs = prop.runner()->stats();
    double mean_q_us =
        rs.queries == 0 ? 0.0 : total_ms * 1000.0 / static_cast<double>(rs.queries);
    table.PrintRow({FmtInt(delta), FmtInt(rs.queries),
                    FmtInt(rs.forward_queries), FmtInt(rs.comp_queries),
                    FmtInt(rs.exec.input_rows), FmtInt(rs.rows_appended),
                    Fmt(total_ms), Fmt(mean_q_us, 1), Fmt(max_step_ms)});
  }
  std::printf(
      "\nShape: queries fall and per-step cost (lock-hold time) rises with\n"
      "the interval; one-shot propagation is the degenerate 'long\n"
      "transaction'. Pick the interval by tolerable max_step_ms.\n");
}

}  // namespace bench
}  // namespace rollview

int main() {
  rollview::bench::Main();
  return 0;
}
