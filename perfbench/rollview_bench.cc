// rollview_bench -- open-loop commit-to-visible benchmark.
//
// Independent clients commit update transactions on a seeded Poisson
// schedule while a MaintenanceService rolls the materialized view forward in
// the background (capture -> rolling propagation -> apply). The schedule is
// open loop: a slow system does not slow the offered load, so a stall shows
// up as queueing in every later commit. Each commit is timed from when it
// was *due*, which charges that queueing to the system:
//
//   commit latency    due -> Db::Commit returned (writes, locks, WAL)
//   visible latency   due -> the MV first holds the commit's CSN
//
// Visibility is observed by a sampler thread that records the time each
// pipeline frontier first passes a CSN, read in reverse pipeline order (MV
// CSN, view high-water mark, capture high-water mark) so the three stamps of
// one CSN are ordered. That gives every commit a bench-side breakdown into
// commit / capture / propagate / apply whose parts sum to its latency.
//
// With --trace 1 the run additionally attaches the engine's own
// instruments -- the FreshnessTracker stage histograms, the maintenance
// drivers' step-trace journal, and the metrics registry -- and reports
// per-layer numbers instead of the end-to-end ones. End-to-end numbers
// always come from an untraced run.
//
// Set-up (create tables, bulk load, capture, compile and materialize the
// view) is timed several times per untraced run -- once for the measured
// engine, the rest spaced out after the measured window -- and reported as
// the median.
//
// After the measured window the service drains, and the run checks that
// every measured commit became visible and that the MV equals a from-scratch
// recomputation of the view at its CSN.
//
// Usage (perfbench/run.py builds the binary and passes these through):
//   rollview_bench --workload <chain|star|partitioned> --seed <n>
//                  --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/log_capture.h"
#include "ivm/baselines.h"
#include "ivm/maintenance.h"
#include "ivm/view_manager.h"
#include "obs/freshness.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "ra/net_effect.h"
#include "workload/mirror.h"
#include "workload/schemas.h"

namespace rollview {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "rollview_bench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

template <typename T>
T ValueOrDie(Result<T> r, const char* what) {
  CheckOk(r.status(), what);
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Shape { kChain, kStar };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  uint32_t partitions;  // propagation strips
  int clients;          // independent open-loop clients
  double rate;          // offered commits per second, all clients together
  // Share of transactions that update the smaller relation(s): S in the
  // chain, a dimension in the star. These are the updates that make
  // compensation queries necessary, and the ones that wait for the table
  // locks propagation queries hold.
  double side_share;
};

// Rates are about a fifth of saturation on a 4-core host (the chain
// pipeline keeps up with ~1000 commits/s, the star's tail grows past ~400),
// so the backlog stays flat and latency reflects the pipeline, not an
// ever-growing queue. Two choices keep run-to-run spread low on a shared
// host: the log is the in-memory WAL (fsync latency of the file-backed log
// varied too much between runs), and the tables are small enough that the
// full-table delete scans on the commit path stay a minor share of the
// visible latency (CPU-bound time tracks the host's speed, which drifts).
const WorkloadSpec kWorkloads[] = {
    // R(5k) |><| S(1k): both sides updated, so rolling propagation runs
    // forward queries and compensation on the compiled two-term path.
    {"chain", Shape::kChain, 1, 2, 200.0, 0.05},
    // fact(5k) |><| 3 dims, Zipf-skewed foreign keys: dimension updates
    // fan out to many view rows and compensation spans four terms, which
    // still runs on the interpreted executor.
    {"star", Shape::kStar, 1, 2, 100.0, 0.05},
    // The chain view split into 2 hash partitions: strips run concurrently
    // on a worker pool and the view high-water mark is the minimum over
    // them.
    {"partitioned", Shape::kChain, 2, 2, 200.0, 0.05},
};

constexpr int64_t kChainRRows = 5000;
constexpr int64_t kChainSRows = 1000;
constexpr int64_t kChainJoinDomain = 256;

constexpr size_t kStarDims = 3;
constexpr int64_t kStarDimRows = 200;
constexpr int64_t kStarFactRows = 5000;

// Timed set-ups per untraced run: the measured one, then the rest after the
// measured window, spaced out so their median averages over seconds of the
// host's speed rather than one burst.
constexpr int kSetupReps = 16;
constexpr auto kSetupSpacing = std::chrono::milliseconds(250);
constexpr double kWarmupSeconds = 1.0;
constexpr auto kSamplePeriod = std::chrono::microseconds(100);
constexpr auto kDrainTimeout = std::chrono::seconds(60);

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// One client's transaction mix: update streams over its own key partition,
// the probability of picking each, and rows it owns before the run starts.
struct ClientMix {
  std::vector<UpdateStreamConfig> streams;
  std::vector<double> weights;
  std::vector<std::vector<Tuple>> seed_rows;  // per stream
};

// ---------------------------------------------------------------------------
// Engine. The registry and the freshness tracker precede the Db: the
// commit path holds a pointer to the tracker, and the engine's components
// stay registered until the destructor drops them.

struct Engine {
  Engine() : capture(&db), views(&db, &capture) {}
  ~Engine() { registry.DropOwner(this); }

  obs::MetricsRegistry registry;
  obs::FreshnessTracker freshness;
  Db db;
  LogCapture capture;
  ViewManager views;
  View* view = nullptr;

  // One update mix per client, filled by Setup.
  std::vector<ClientMix> mixes;
};

std::unique_ptr<Engine> Setup(const WorkloadSpec& spec, uint64_t seed) {
  auto engine = std::make_unique<Engine>();
  Db* db = &engine->db;
  const int clients = spec.clients;
  engine->mixes.resize(clients);

  if (spec.shape == Shape::kChain) {
    TwoTableWorkload w = ValueOrDie(
        TwoTableWorkload::Create(db, kChainRRows, kChainSRows,
                                 kChainJoinDomain, seed),
        "load chain tables");
    engine->capture.CatchUp();
    engine->view = ValueOrDie(engine->views.CreateView("V", w.ViewDef()),
                              "create view");
    for (int c = 0; c < clients; ++c) {
      const uint64_t cs = seed * 1000 + static_cast<uint64_t>(c);
      ClientMix& mix = engine->mixes[c];
      mix.streams = {w.RStream(c + 1, cs), w.SStream(c + 1, cs)};
      mix.weights = {1.0 - spec.side_share, spec.side_share};
      mix.seed_rows.resize(2);
    }
  } else {
    StarSchemaConfig cfg;
    cfg.num_dims = kStarDims;
    cfg.dim_rows = kStarDimRows;
    cfg.fact_rows = kStarFactRows;
    StarSchemaWorkload w = ValueOrDie(StarSchemaWorkload::Create(db, cfg, seed),
                                      "load star tables");
    engine->capture.CatchUp();
    engine->view = ValueOrDie(engine->views.CreateView("V", w.ViewDef()),
                              "create view");
    // Dimension updates rewrite existing rows; each client owns the rows
    // whose key is congruent to its index, so no two clients race on one.
    std::vector<std::vector<Tuple>> dim_rows(kStarDims);
    for (size_t d = 0; d < kStarDims; ++d) {
      dim_rows[d] = ValueOrDie(db->SnapshotScan(w.dims[d], db->stable_csn()),
                               "scan dimension");
    }
    for (int c = 0; c < clients; ++c) {
      const uint64_t cs = seed * 1000 + static_cast<uint64_t>(c);
      ClientMix& mix = engine->mixes[c];
      mix.streams.push_back(w.FactStream(c + 1, cs));
      mix.weights.push_back(1.0 - spec.side_share);
      mix.seed_rows.emplace_back();
      for (size_t d = 0; d < kStarDims; ++d) {
        UpdateStreamConfig dim = w.DimStream(d, c + 1, cs);
        dim.ops_per_txn = 1;
        mix.streams.push_back(std::move(dim));
        mix.weights.push_back(spec.side_share / kStarDims);
        std::vector<Tuple> own;
        for (const Tuple& t : dim_rows[d]) {
          if (t[0].AsInt64() % clients == c) own.push_back(t);
        }
        mix.seed_rows.push_back(std::move(own));
      }
    }
  }
  CheckOk(engine->views.Materialize(engine->view), "materialize");
  return engine;
}

// ---------------------------------------------------------------------------
// Open-loop client.

struct CommitSample {
  uint64_t due = 0;        // when the schedule released the transaction
  uint64_t ack = 0;        // Db::Commit returned OK
  uint64_t ops_nanos = 0;  // bench span: the data operations (locks, writes)
  uint64_t commit_nanos = 0;  // bench span: the Db::Commit call
  Csn csn = kNullCsn;
  bool ok = false;
};

// One independent user: a weighted mix of update streams over its own key
// partition. Mirrors UpdateStream's insert/delete/update planning but keeps
// the commit CSN, which the visibility measurement needs.
class Client {
 public:
  Client(Db* db, const ClientMix& mix, uint64_t seed)
      : db_(db), streams_(mix.streams), weights_(mix.weights), rng_(seed) {
    mirrors_.resize(streams_.size());
    next_key_.resize(streams_.size());
    for (size_t i = 0; i < streams_.size(); ++i) {
      next_key_[i] = streams_[i].first_key;
      for (const Tuple& t : mix.seed_rows[i]) mirrors_[i].Add(t);
    }
  }

  // Runs one transaction, retrying deadlock-victim aborts and lock
  // timeouts. Fills everything but `due`.
  void RunTransaction(CommitSample* out, uint64_t* retries) {
    const size_t s = PickStream();
    const UpdateStreamConfig& cfg = streams_[s];
    std::vector<Op> ops = Plan(s);
    for (int attempt = 0;; ++attempt) {
      std::unique_ptr<Txn> txn = db_->Begin();
      const uint64_t t0 = NowNanos();
      Status st = Apply(txn.get(), cfg.table, ops);
      const uint64_t t1 = NowNanos();
      if (st.ok()) st = db_->Commit(txn.get());
      const uint64_t t2 = NowNanos();
      if (st.ok()) {
        out->ack = t2;
        out->ops_nanos = t1 - t0;
        out->commit_nanos = t2 - t1;
        out->csn = txn->commit_csn();
        out->ok = true;
        break;
      }
      if (txn->state() == TxnState::kActive) db_->Abort(txn.get()).ok();
      if (!(st.IsTxnAborted() || st.IsBusy()) || attempt >= 32) {
        std::fprintf(stderr, "rollview_bench: transaction failed: %s\n",
                     st.ToString().c_str());
        out->ok = false;
        return;
      }
      ++*retries;
      std::this_thread::sleep_for(std::chrono::microseconds(100) *
                                  (attempt + 1));
    }
    for (Op& op : ops) {
      if (op.kind == Op::kInsert) mirrors_[s].Add(std::move(op.tuple));
      if (op.kind == Op::kUpdate) mirrors_[s].Add(std::move(op.new_tuple));
    }
  }

  // Exponential inter-arrival gap (Poisson arrivals) for this client.
  double NextGapNanos(double mean_nanos) {
    return -std::log(1.0 - rng_.NextDouble()) * mean_nanos;
  }

 private:
  struct Op {
    enum Kind { kInsert, kDelete, kUpdate } kind;
    Tuple tuple;
    Tuple new_tuple;
  };

  size_t PickStream() {
    double u = rng_.NextDouble();
    for (size_t i = 0; i + 1 < weights_.size(); ++i) {
      if (u < weights_[i]) return i;
      u -= weights_[i];
    }
    return weights_.size() - 1;
  }

  std::vector<Op> Plan(size_t s) {
    const UpdateStreamConfig& cfg = streams_[s];
    TableMirror& mirror = mirrors_[s];
    std::vector<Op> ops;
    for (size_t k = 0; k < cfg.ops_per_txn; ++k) {
      const double roll = rng_.NextDouble();
      if (!mirror.empty() && roll < cfg.delete_prob) {
        ops.push_back({Op::kDelete, mirror.TakeRandom(rng_), {}});
      } else if (!mirror.empty() && roll < cfg.delete_prob + cfg.update_prob) {
        Tuple old_tuple = mirror.TakeRandom(rng_);
        Tuple new_tuple = cfg.mutate_tuple
                              ? cfg.mutate_tuple(old_tuple, next_key_[s]++)
                              : cfg.make_tuple(next_key_[s]++);
        ops.push_back({Op::kUpdate, std::move(old_tuple), std::move(new_tuple)});
      } else {
        ops.push_back({Op::kInsert, cfg.make_tuple(next_key_[s]++), {}});
      }
    }
    return ops;
  }

  Status Apply(Txn* txn, TableId table, const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kInsert:
          ROLLVIEW_RETURN_NOT_OK(db_->Insert(txn, table, op.tuple));
          break;
        case Op::kDelete: {
          ROLLVIEW_ASSIGN_OR_RETURN(int64_t n,
                                    db_->DeleteTuple(txn, table, op.tuple, 1));
          if (n != 1) return Status::Internal("delete victim missing");
          break;
        }
        case Op::kUpdate:
          ROLLVIEW_RETURN_NOT_OK(
              db_->Update(txn, table, op.tuple, op.new_tuple));
          break;
      }
    }
    return Status::OK();
  }

  Db* db_;
  std::vector<UpdateStreamConfig> streams_;
  std::vector<double> weights_;
  std::vector<TableMirror> mirrors_;
  std::vector<int64_t> next_key_;
  Rng rng_;
};

// ---------------------------------------------------------------------------
// Frontier sampling: (csn, first time seen) series per pipeline frontier.

struct FrontierPoint {
  Csn csn;
  uint64_t nanos;
};

class FrontierSeries {
 public:
  void Observe(Csn csn, uint64_t nanos) {
    if (points_.empty() || csn > points_.back().csn) {
      points_.push_back({csn, nanos});
    }
  }
  // First time the frontier covered `csn`; 0 if it never did.
  uint64_t StampFor(Csn csn) const {
    auto it = std::lower_bound(
        points_.begin(), points_.end(), csn,
        [](const FrontierPoint& p, Csn c) { return p.csn < c; });
    return it == points_.end() ? 0 : it->nanos;
  }

 private:
  std::vector<FrontierPoint> points_;
};

// ---------------------------------------------------------------------------
// Span accounting over the maintenance step-trace journal (trace mode only).

class SpanTotals {
 public:
  static constexpr size_t kKinds = 16;

  // Folds in every trace recorded since the last call.
  void Collect(const obs::TraceJournal& journal) {
    const uint64_t recorded = journal.recorded();
    if (recorded <= last_id_) return;
    // Slack for traces recorded between the two reads.
    const size_t want = static_cast<size_t>(std::min<uint64_t>(
        recorded - last_id_ + 64, journal.capacity()));
    for (const obs::StepTrace& t : journal.Last(want)) {
      if (t.trace_id <= last_id_) continue;
      lost_ += t.trace_id - last_id_ - 1;
      last_id_ = t.trace_id;
      Add(t);
    }
  }

  // Forgets everything accumulated so far (start of the measured window).
  void ResetTotals() {
    for (uint64_t& n : self_nanos_) n = 0;
    lost_ = 0;
  }

  double SelfMillis(obs::SpanKind kind) const {
    return static_cast<double>(self_nanos_[static_cast<size_t>(kind)]) / 1e6;
  }
  uint64_t lost() const { return lost_; }

 private:
  void Add(const obs::StepTrace& t) {
    std::vector<uint64_t> child(t.spans.size(), 0);
    for (const obs::Span& s : t.spans) {
      if (s.parent != 0 && s.parent <= t.spans.size()) {
        child[s.parent - 1] += s.end_nanos - s.start_nanos;
      }
    }
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const obs::Span& s = t.spans[i];
      const uint64_t dur = s.end_nanos - s.start_nanos;
      const size_t k = static_cast<size_t>(s.kind);
      if (k >= kKinds) continue;
      self_nanos_[k] += dur > child[i] ? dur - child[i] : 0;
    }
  }

  uint64_t last_id_ = 0;
  uint64_t lost_ = 0;
  uint64_t self_nanos_[kKinds] = {};
};

// ---------------------------------------------------------------------------
// Statistics.

double Millis(uint64_t nanos) { return static_cast<double>(nanos) / 1e6; }

// Nearest-rank percentile of an unsorted sample (copied).
uint64_t Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0;
  long double sum = 0;
  for (uint64_t x : v) sum += x;
  return static_cast<double>(sum / v.size());
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Registry deltas over the measured window.
class RegistryWindow {
 public:
  RegistryWindow(obs::MetricsSnapshot begin, obs::MetricsSnapshot end)
      : begin_(std::move(begin)), end_(std::move(end)) {}

  double Counter(const std::string& name, const obs::Labels& labels) const {
    return static_cast<double>(end_.CounterValue(name, labels) -
                               begin_.CounterValue(name, labels));
  }
  // Mean of the samples a histogram recorded inside the window, in ms.
  double HistMeanMillis(const std::string& name,
                        const obs::Labels& labels) const {
    const obs::HistogramSummary* e = end_.Histogram(name, labels);
    if (e == nullptr) return 0;
    const obs::HistogramSummary* b = begin_.Histogram(name, labels);
    const uint64_t count = e->count - (b != nullptr ? b->count : 0);
    const uint64_t sum = e->sum_nanos - (b != nullptr ? b->sum_nanos : 0);
    return count == 0 ? 0 : Millis(sum) / static_cast<double>(count);
  }

 private:
  obs::MetricsSnapshot begin_;
  obs::MetricsSnapshot end_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

// One commit's timeline, clamped so each stage starts where the previous
// one ended: the four stage lengths sum to the visible latency exactly.
struct CommitTimeline {
  uint64_t commit;     // due -> ack
  uint64_t capture;    // ack -> capture high-water mark covers the CSN
  uint64_t propagate;  // captured -> view high-water mark covers it
  uint64_t apply;      // propagated -> MV CSN covers it
  uint64_t visible() const { return commit + capture + propagate + apply; }
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload " + args.workload);

  // --- Set-up (the first of the timed set-ups). ---
  std::vector<double> setup_seconds;
  auto timed_setup = [&] {
    const uint64_t t0 = NowNanos();
    std::unique_ptr<Engine> built = Setup(*spec, args.seed);
    setup_seconds.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    return built;
  };
  std::unique_ptr<Engine> engine = timed_setup();
  Engine& e = *engine;
  View* view = e.view;

  // --- Maintenance pipeline. ---
  MaintenanceService::Options mopts;
  mopts.propagate_partitions = spec->partitions;
  if (args.trace) {
    e.db.SetFreshnessTracker(&e.freshness);
    mopts.freshness = &e.freshness;
    mopts.trace_journal_capacity = 8192;
  }
  auto service = std::make_unique<MaintenanceService>(&e.views, view, mopts);
  if (args.trace) {
    service->RegisterMetrics(&e.registry);
    e.db.lock_manager()->RegisterMetrics(&e.registry, &e);
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < spec->clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        &e.db, e.mixes[c], args.seed * 7919 + static_cast<uint64_t>(c) + 1));
  }

  e.capture.Start();
  service->Start();

  // Frontier sampler (and, in trace mode, journal collector).
  FrontierSeries captured, propagated, visible;
  SpanTotals spans;
  std::atomic<bool> sampling{true};
  std::atomic<bool> reset_spans{false};
  std::thread sampler([&] {
    uint64_t last_collect = 0;
    for (;;) {
      // Sample once more after the stop request, so the final frontier the
      // drain waited for is always recorded.
      const bool last = !sampling.load(std::memory_order_acquire);
      // Reverse pipeline order: each later read is a frontier at least as
      // far along as the earlier one, so a CSN's stamps come out ordered.
      const Csn mv = view->mv->csn();
      const Csn hwm = view->high_water_mark();
      const Csn cap = e.capture.high_water_mark();
      const uint64_t now = NowNanos();
      visible.Observe(mv, now);
      propagated.Observe(hwm, now);
      captured.Observe(cap, now);
      if (last) break;
      if (args.trace && now - last_collect > 10'000'000) {
        last_collect = now;
        spans.Collect(*service->trace_journal());
        if (reset_spans.exchange(false)) spans.ResetTotals();
      }
      std::this_thread::sleep_for(kSamplePeriod);
    }
    if (args.trace) spans.Collect(*service->trace_journal());
  });

  // --- Open-loop load. ---
  const uint64_t start = NowNanos() + 5'000'000;
  const uint64_t measure_begin =
      start + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  const uint64_t measure_end =
      measure_begin + static_cast<uint64_t>(args.seconds * 1e9);
  const double mean_gap_nanos = 1e9 * spec->clients / spec->rate;
  std::vector<std::vector<CommitSample>> samples(spec->clients);
  std::vector<uint64_t> retries(spec->clients, 0);
  std::vector<std::thread> client_threads;
  for (int c = 0; c < spec->clients; ++c) {
    client_threads.emplace_back([&, c] {
      Client* client = clients[c].get();
      double due = static_cast<double>(start) +
                   client->NextGapNanos(mean_gap_nanos);
      while (due < static_cast<double>(measure_end)) {
        const uint64_t due_ns = static_cast<uint64_t>(due);
        const uint64_t now = NowNanos();
        if (now < due_ns) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
        }
        CommitSample s;
        s.due = due_ns;
        client->RunTransaction(&s, &retries[c]);
        samples[c].push_back(s);
        due += client->NextGapNanos(mean_gap_nanos);
      }
    });
  }

  obs::MetricsSnapshot snap_begin;
  {
    const uint64_t now = NowNanos();
    if (measure_begin > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(measure_begin - now));
    }
    if (args.trace) {
      snap_begin = e.registry.Snapshot();
      reset_spans.store(true);
    }
  }
  for (std::thread& t : client_threads) t.join();

  // --- Drain: every commit must become visible. ---
  Csn last_csn = kNullCsn;
  for (const auto& per_client : samples) {
    for (const CommitSample& s : per_client) {
      if (s.ok) last_csn = std::max(last_csn, s.csn);
    }
  }
  const auto drain_deadline = Clock::now() + kDrainTimeout;
  bool drained = true;
  while (view->mv->csn() < last_csn) {
    if (service->Health() == DriverHealth::kFailed ||
        Clock::now() > drain_deadline) {
      std::fprintf(stderr,
                   "rollview_bench: view stuck at csn %llu short of %llu (%s)\n",
                   static_cast<unsigned long long>(view->mv->csn()),
                   static_cast<unsigned long long>(last_csn),
                   DriverHealthName(service->Health()));
      drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampling.store(false, std::memory_order_release);
  sampler.join();
  obs::MetricsSnapshot snap_end;
  if (args.trace) snap_end = e.registry.Snapshot();

  Status stop = service->Stop();
  e.capture.Stop();
  if (!stop.ok()) {
    std::fprintf(stderr, "rollview_bench: maintenance failed: %s\n",
                 stop.ToString().c_str());
  }

  // --- Correctness: the MV equals a recomputation at its CSN. ---
  bool correct = drained && stop.ok();
  if (correct) {
    const Csn at = view->mv->csn();
    DeltaRows oracle =
        ValueOrDie(SnapshotViewState(&e.db, view->resolved, at), "oracle");
    if (!NetEquivalent(oracle, view->mv->AsDeltaRows())) {
      std::fprintf(stderr,
                   "rollview_bench: view diverges from recomputation at csn "
                   "%llu\n",
                   static_cast<unsigned long long>(at));
      correct = false;
    }
  }

  // --- Per-commit timelines over the measured window. ---
  uint64_t attempted = 0, failed = 0, total_retries = 0;
  std::vector<CommitTimeline> timelines;
  std::vector<uint64_t> ops_span, commit_span, late;
  for (int c = 0; c < spec->clients; ++c) {
    total_retries += retries[c];
    for (const CommitSample& s : samples[c]) {
      if (s.due < measure_begin || s.due >= measure_end) continue;
      ++attempted;
      const uint64_t t_vis = s.ok ? visible.StampFor(s.csn) : 0;
      if (t_vis == 0) {
        ++failed;
        continue;
      }
      const uint64_t t1 = s.ack;
      const uint64_t t2 = std::max(t1, captured.StampFor(s.csn));
      const uint64_t t3 = std::max(t2, propagated.StampFor(s.csn));
      const uint64_t t4 = std::max(t3, t_vis);
      timelines.push_back({t1 - s.due, t2 - t1, t3 - t2, t4 - t3});
      ops_span.push_back(s.ops_nanos);
      commit_span.push_back(s.commit_nanos);
      // How far behind its schedule the client released the transaction.
      const uint64_t released = s.ack - s.ops_nanos - s.commit_nanos;
      late.push_back(released > s.due ? released - s.due : 0);
    }
  }
  if (failed > 0) {
    std::fprintf(stderr, "rollview_bench: %llu of %llu commits failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    correct = false;
  }
  if (attempted == 0) {
    attempted = 1;
    failed = 1;
    correct = false;
  }
  auto column = [&](uint64_t (*get)(const CommitTimeline&)) {
    std::vector<uint64_t> v;
    v.reserve(timelines.size());
    for (const CommitTimeline& t : timelines) v.push_back(get(t));
    return v;
  };
  const std::vector<uint64_t> visible_lat =
      column([](const CommitTimeline& t) { return t.visible(); });
  const std::vector<uint64_t> commit_lat =
      column([](const CommitTimeline& t) { return t.commit; });

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The remaining timed set-ups, on an otherwise idle process.
    clients.clear();
    service.reset();
    engine.reset();
    for (int rep = 1; rep < kSetupReps; ++rep) {
      std::this_thread::sleep_for(kSetupSpacing);
      timed_setup();
    }
    metrics = {
        {"visible_p50_ms", Millis(Percentile(visible_lat, 0.50)), "ms"},
        {"visible_p90_ms", Millis(Percentile(visible_lat, 0.90)), "ms"},
        {"setup_s", MedianOf(setup_seconds), "s"},
    };
  } else {
    RegistryWindow w(std::move(snap_begin), std::move(snap_end));
    const obs::Labels lv{{"view", "V"}};
    auto stage = [&](const char* name) {
      return w.HistMeanMillis("rollview_freshness_stage_nanos",
                              {{"view", "V"}, {"stage", name}});
    };
    auto step_outcome = [&](const char* driver, const char* outcome) {
      return w.Counter("rollview_step_total", {{"view", "V"},
                                               {"driver", driver},
                                               {"outcome", outcome}});
    };
    const double fwd = w.Counter("rollview_queries_total",
                                 {{"view", "V"}, {"kind", "forward"}});
    const double comp = w.Counter("rollview_queries_total",
                                  {{"view", "V"}, {"kind", "compensation"}});
    const double exec_ms = w.Counter("rollview_exec_nanos_total", lv) / 1e6;
    metrics = {
        // Bench-side breakdown of the visible latency (means; the four
        // parts sum to the mean visible latency).
        {"layer_commit_ms",
         Mean(column([](const CommitTimeline& t) { return t.commit; })) / 1e6,
         "ms"},
        {"layer_capture_ms",
         Mean(column([](const CommitTimeline& t) { return t.capture; })) / 1e6,
         "ms"},
        {"layer_propagate_ms",
         Mean(column([](const CommitTimeline& t) { return t.propagate; })) /
             1e6,
         "ms"},
        {"layer_apply_ms",
         Mean(column([](const CommitTimeline& t) { return t.apply; })) / 1e6,
         "ms"},
        // Traced-run tail (tracing overhead included).
        {"traced_visible_p50_ms", Millis(Percentile(visible_lat, 0.50)), "ms"},
        {"traced_visible_p99_ms", Millis(Percentile(visible_lat, 0.99)), "ms"},
        {"traced_commit_p50_ms", Millis(Percentile(commit_lat, 0.50)), "ms"},
        {"traced_commit_p99_ms", Millis(Percentile(commit_lat, 0.99)), "ms"},
        // Bench spans around the calls into the storage layer.
        {"txn_ops_us", Mean(ops_span) / 1e3, "us"},
        {"txn_commit_call_us", Mean(commit_span) / 1e3, "us"},
        {"generator_late_p99_ms", Millis(Percentile(late, 0.99)), "ms"},
        {"txn_retries", static_cast<double>(total_retries), "count"},
        // The engine's FreshnessTracker stage lags (means from commit ack;
        // the in-memory log makes the durable stage zero, so it is left
        // out and the three parts sum to fresh_e2e_ms).
        {"fresh_pickup_ms", stage("pickup"), "ms"},
        {"fresh_propagate_ms", stage("propagate"), "ms"},
        {"fresh_apply_ms", stage("apply"), "ms"},
        {"fresh_e2e_ms", w.HistMeanMillis("rollview_freshness_e2e_nanos", lv),
         "ms"},
        // Propagation work.
        {"forward_queries", fwd, "count"},
        {"compensation_queries", comp, "count"},
        {"view_delta_rows", w.Counter("rollview_view_delta_rows_total", lv),
         "count"},
        {"exec_ms", exec_ms, "ms"},
        {"exec_us_per_query",
         fwd + comp > 0 ? exec_ms * 1e3 / (fwd + comp) : 0, "us"},
        {"compiled_queries", w.Counter("rollview_compiled_queries_total", lv),
         "count"},
        {"propagate_steps", step_outcome("propagate", "ok"), "count"},
        {"driver_transient_errors",
         step_outcome("propagate", "transient_error") +
             step_outcome("apply", "transient_error"),
         "count"},
        // Apply.
        {"apply_rolls", w.Counter("rollview_apply_rolls_total", lv), "count"},
        {"apply_rows",
         w.Counter("rollview_apply_rows_total",
                   {{"view", "V"}, {"event", "selected"}}),
         "count"},
        // Locking between OLTP and maintenance.
        {"lock_waits_oltp",
         w.Counter("rollview_lock_waits_total", {{"class", "oltp"}}), "count"},
        {"lock_wait_ms_oltp",
         w.Counter("rollview_lock_wait_nanos_total", {{"class", "oltp"}}) /
             1e6,
         "ms"},
        {"lock_waits_maintenance",
         w.Counter("rollview_lock_waits_total", {{"class", "maintenance"}}),
         "count"},
        // Engine spans: self time per span kind over the window.
        {"span_step_self_ms", spans.SelfMillis(obs::SpanKind::kStep), "ms"},
        {"span_forward_ms", spans.SelfMillis(obs::SpanKind::kForward), "ms"},
        {"span_compensation_ms",
         spans.SelfMillis(obs::SpanKind::kCompensation), "ms"},
        {"span_wal_append_ms", spans.SelfMillis(obs::SpanKind::kWalAppend),
         "ms"},
        {"span_apply_ms", spans.SelfMillis(obs::SpanKind::kApply), "ms"},
        {"spans_lost", static_cast<double>(spans.lost()), "count"},
    };
  }

  // The p99 tails and the commit latency are printed for reading but not
  // gated: on a shared host their run-to-run spread is wider than any
  // useful bound (commit latency is CPU-bound and tracks host speed).
  std::printf(
      "workload=%s seed=%llu rate=%.0f/s clients=%d partitions=%u trace=%d "
      "measured=%llu failed=%llu retries=%llu visible_p99_ms=%.3f "
      "commit_p50_ms=%.3f commit_p99_ms=%.3f\n",
      spec->name, static_cast<unsigned long long>(args.seed), spec->rate,
      spec->clients, spec->partitions, args.trace ? 1 : 0,
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(total_retries),
      Millis(Percentile(visible_lat, 0.99)),
      Millis(Percentile(commit_lat, 0.50)),
      Millis(Percentile(commit_lat, 0.99)));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace rollview

int main(int argc, char** argv) { return rollview::perfbench::Main(argc, argv); }
