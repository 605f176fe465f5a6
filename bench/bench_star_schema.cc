// E4 -- per-relation propagation intervals on a star schema (paper
// Sec. 3.4).
//
// "Consider a star schema in which the central fact table is frequently
//  updated and the surrounding dimension tables are rarely updated. If the
//  propagation interval is the same for all forward queries, the forward
//  queries for the fact table will be much larger than the forward queries
//  for the dimension tables. ... rolling propagation provides n independent
//  tunable parameters, rather than one."
//
// Fixed skewed history (hot fact, cold dims); compare interval strategies.
// The empty-range optimization is ALSO ablated: with it off, a uniform fine
// interval pays a full (empty) forward query per dimension per step --
// exactly the waste the paper describes.

#include "bench_util.h"

namespace rollview {
namespace bench {
namespace {

struct RowResult {
  uint64_t queries = 0;
  uint64_t skipped = 0;
  uint64_t rows_in = 0;
  uint64_t max_fwd_rows = 0;  // largest single forward query's delta input
  double ms = 0;
};

}  // namespace

void Main() {
  Banner("E4: bench_star_schema",
         "Uniform vs per-relation propagation intervals on a star schema "
         "(hot fact table, cold dimensions), with the empty-range pruning "
         "ablation.");

  Env env;
  StarSchemaConfig config;
  config.num_dims = 2;
  config.dim_rows = 200;
  config.fact_rows = 10000;
  config.zipf_theta = 0.8;
  StarSchemaWorkload star =
      ValueOrDie(StarSchemaWorkload::Create(&env.db, config, 9), "star");
  env.capture.CatchUp();

  View* base_view =
      ValueOrDie(env.views.CreateView("V0", star.ViewDef()), "view");
  CheckOk(env.views.Materialize(base_view), "materialize");
  Csn t0 = base_view->propagate_from.load();

  // Skewed history: 1200 fact transactions, 12 dimension transactions.
  UpdateStream fact(&env.db, star.FactStream(1, 31), 31);
  UpdateStream dim0(&env.db, star.DimStream(0, 2, 32), 32);
  UpdateStream dim1(&env.db, star.DimStream(1, 3, 33), 33);
  {
    // Dim updaters mutate preloaded rows.
    std::vector<Tuple> d0, d1;
    for (int64_t k = 0; k < config.dim_rows; ++k) {
      d0.push_back(Tuple{Value(k), Value(int64_t{0}),
                         Value("d0_" + std::to_string(k))});
      d1.push_back(Tuple{Value(k), Value(int64_t{0}),
                         Value("d1_" + std::to_string(k))});
    }
    // NOTE: attr values in the mirror must match what was loaded; reload
    // from the engine instead of reconstructing.
    auto txn = env.db.Begin();
    d0 = ValueOrDie(env.db.Scan(txn.get(), star.dims[0]), "scan d0");
    d1 = ValueOrDie(env.db.Scan(txn.get(), star.dims[1]), "scan d1");
    CheckOk(env.db.Commit(txn.get()), "scan commit");
    dim0.SeedMirror(std::move(d0));
    dim1.SeedMirror(std::move(d1));
  }
  for (int i = 0; i < 1200; ++i) {
    CheckOk(fact.RunTransaction(), "fact txn");
    if (i % 100 == 50) CheckOk(dim0.RunTransaction(), "dim0 txn");
    if (i % 200 == 150) CheckOk(dim1.RunTransaction(), "dim1 txn");
  }
  env.capture.CatchUp();
  Csn t_end = env.capture.high_water_mark();
  std::printf("history: %llu commits; delta rows: fact=%zu dim0=%zu dim1=%zu\n\n",
              static_cast<unsigned long long>(t_end - t0),
              env.db.delta(star.fact)->size(),
              env.db.delta(star.dims[0])->size(),
              env.db.delta(star.dims[1])->size());

  auto run = [&](const std::string& name,
                 std::function<std::vector<std::unique_ptr<IntervalPolicy>>()>
                     make_policies,
                 bool skip_empty) -> RowResult {
    View* view = ValueOrDie(env.views.CreateView(name, star.ViewDef()),
                            "view");
    view->propagate_from.store(t0);
    view->delta_hwm.Reset(t0);
    RollingOptions options;
    options.compute_delta.skip_empty_ranges = skip_empty;
    RollingPropagator prop(&env.views, view, make_policies(),
                           std::move(options));
    Stopwatch sw;
    CheckOk(prop.RunUntil(t_end), "propagate");
    RowResult out;
    out.ms = sw.ElapsedMillis();
    out.queries = prop.runner()->stats().queries;
    out.skipped = prop.rolling_stats().forward_skipped;
    out.rows_in = prop.runner()->stats().exec.input_rows;
    return out;
  };

  auto uniform = [&](Csn len) {
    return [&, len] {
      std::vector<std::unique_ptr<IntervalPolicy>> ps;
      for (size_t i = 0; i < 1 + config.num_dims; ++i) {
        ps.push_back(std::make_unique<FixedInterval>(len));
      }
      return ps;
    };
  };
  auto per_table = [&](Csn fact_len, Csn dim_len) {
    return [&, fact_len, dim_len] {
      std::vector<std::unique_ptr<IntervalPolicy>> ps;
      ps.push_back(std::make_unique<FixedInterval>(fact_len));
      for (size_t i = 0; i < config.num_dims; ++i) {
        ps.push_back(std::make_unique<FixedInterval>(dim_len));
      }
      return ps;
    };
  };
  auto adaptive = [&](size_t fact_rows, size_t dim_rows) {
    return [&, fact_rows, dim_rows] {
      std::vector<std::unique_ptr<IntervalPolicy>> ps;
      ps.push_back(std::make_unique<TargetRowsInterval>(fact_rows));
      for (size_t i = 0; i < config.num_dims; ++i) {
        ps.push_back(std::make_unique<TargetRowsInterval>(dim_rows));
      }
      return ps;
    };
  };

  TablePrinter table({"strategy", "queries", "fwd_skipped", "rows_in",
                      "total_ms"},
                     17);
  table.PrintHeader();
  struct Case {
    std::string name;
    std::function<std::vector<std::unique_ptr<IntervalPolicy>>()> make;
    bool skip_empty;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform16", uniform(16), true});
  cases.push_back({"uniform16-noskip", uniform(16), false});
  cases.push_back({"uniform128", uniform(128), true});
  cases.push_back({"pertbl16/640", per_table(16, 640), true});
  cases.push_back({"pertbl16/640-ns", per_table(16, 640), false});
  cases.push_back({"adaptive64/16", adaptive(64, 16), true});
  for (auto& c : cases) {
    RowResult r = run("V_" + c.name, c.make, c.skip_empty);
    table.PrintRow({c.name, FmtInt(r.queries), FmtInt(r.skipped),
                    FmtInt(r.rows_in), Fmt(r.ms)});
  }
  std::printf(
      "\nShape: with one knob (uniform), fine intervals spray tiny/empty\n"
      "dimension queries (see -noskip ablation) and coarse intervals make\n"
      "fact queries huge. Per-relation and adaptive intervals get small\n"
      "fact queries AND few dimension queries simultaneously.\n");
}

}  // namespace bench
}  // namespace rollview

int main() {
  rollview::bench::Main();
  return 0;
}
