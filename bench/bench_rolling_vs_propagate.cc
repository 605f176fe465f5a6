// E6 -- rolling propagation vs the Propagate process (paper Sec. 3.4).
//
// "Rolling propagation also tends to generate fewer, larger propagation
//  queries than Propagate does. Although both algorithms are based on
//  ComputeDelta, rolling propagation defers the compensations for some
//  forward queries and combines them with compensations for later queries.
//  As a result, it makes fewer calls to ComputeDelta than Propagate does."
//
// Same captured history, same interval length; compare executed query
// counts, compensation work, and wall time across interval sizes.

#include "bench_util.h"

namespace rollview {
namespace bench {

void Main() {
  Banner("E6: bench_rolling_vs_propagate",
         "Executed propagation queries and wall time: Figure 5 Propagate "
         "(eager per-interval compensation) vs Figure 10 RollingPropagate "
         "(deferred, merged compensation), equal history and intervals.");

  Env env;
  TwoTableWorkload workload = ValueOrDie(
      TwoTableWorkload::Create(&env.db, /*r_rows=*/10000, /*s_rows=*/4000,
                               /*join_domain=*/512, /*seed=*/21),
      "workload");
  env.capture.CatchUp();
  View* base_view =
      ValueOrDie(env.views.CreateView("V0", workload.ViewDef()), "view");
  CheckOk(env.views.Materialize(base_view), "materialize");
  Csn t0 = base_view->propagate_from.load();
  // Both tables update at comparable rates -> compensation work matters.
  RunTwoTableHistory(&env, workload, /*txns=*/800, /*seed=*/22,
                     /*s_every=*/1);
  Csn t_end = env.capture.high_water_mark();
  std::printf("history: %llu commits\n\n",
              static_cast<unsigned long long>(t_end - t0));

  TablePrinter table({"interval", "method", "queries", "fwd", "comp",
                      "rows_in", "vdelta_rows", "ms"});
  table.PrintHeader();

  for (Csn interval : {Csn(8), Csn(32), Csn(128)}) {
    {
      View* v = ValueOrDie(
          env.views.CreateView("Vp" + std::to_string(interval),
                               workload.ViewDef()),
          "view");
      v->propagate_from.store(t0);
      v->delta_hwm.Reset(t0);
      Propagator prop(&env.views, v,
                      std::make_unique<FixedInterval>(interval));
      Stopwatch sw;
      CheckOk(prop.RunUntil(t_end), "propagate");
      const RunnerStats& rs = prop.runner()->stats();
      table.PrintRow({FmtInt(interval), "propagate", FmtInt(rs.queries),
                      FmtInt(rs.forward_queries), FmtInt(rs.comp_queries),
                      FmtInt(rs.exec.input_rows), FmtInt(rs.rows_appended),
                      Fmt(sw.ElapsedMillis())});
    }
    for (CompensationMode mode :
         {CompensationMode::kDeferredFigure10, CompensationMode::kFrontier}) {
      bool deferred = mode == CompensationMode::kDeferredFigure10;
      View* v = ValueOrDie(
          env.views.CreateView(
              std::string(deferred ? "Vrd" : "Vrf") + std::to_string(interval),
              workload.ViewDef()),
          "view");
      v->propagate_from.store(t0);
      v->delta_hwm.Reset(t0);
      RollingOptions options;
      options.compensation = mode;
      RollingPropagator prop(&env.views, v, interval, options);
      Stopwatch sw;
      CheckOk(prop.RunUntil(t_end), "rolling");
      const RunnerStats& rs = prop.runner()->stats();
      table.PrintRow({FmtInt(interval),
                      deferred ? "roll-defer" : "roll-front",
                      FmtInt(rs.queries), FmtInt(rs.forward_queries),
                      FmtInt(rs.comp_queries), FmtInt(rs.exec.input_rows),
                      FmtInt(rs.rows_appended), Fmt(sw.ElapsedMillis())});
    }
  }
  std::printf(
      "\nShape: equal forward-query counts, but deferred rolling merges\n"
      "overlap compensation across strips, executing fewer compensation\n"
      "queries than Propagate for the same coverage; the gap widens as\n"
      "intervals shrink. (Deferred merging is exact for 2-relation views\n"
      "only -- see DESIGN.md section 8; frontier mode, exact for all join\n"
      "widths, compensates each strip immediately and sits near Propagate\n"
      "in query count.)\n");
}

}  // namespace bench
}  // namespace rollview

int main() {
  rollview::bench::Main();
  return 0;
}
