// Copyright 2026 The rollview Authors.
//
// Shared benchmark scaffolding: engine bundles, seeded histories, wall-clock
// timing, and fixed-width table printing so each bench binary emits a
// paper-style table (see EXPERIMENTS.md for the experiment index).

#ifndef ROLLVIEW_BENCH_BENCH_UTIL_H_
#define ROLLVIEW_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capture/log_capture.h"
#include "ivm/apply.h"
#include "ivm/baselines.h"
#include "ivm/propagate.h"
#include "ivm/rolling.h"
#include "ivm/view_manager.h"
#include "obs/registry.h"
#include "workload/schemas.h"

namespace rollview {
namespace bench {

// Aborts the benchmark on error -- benches assume a working build.
void CheckOk(const Status& s, const char* what);

template <typename T>
T ValueOrDie(Result<T> r, const char* what) {
  CheckOk(r.status(), what);
  return std::move(r).value();
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMillis() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
               d)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Engine + capture + views bundle.
struct Env {
  Env() : capture(&db), views(&db, &capture) {}
  explicit Env(const DbOptions& options)
      : db(options), capture(&db), views(&db, &capture) {}
  Db db;
  LogCapture capture;
  ViewManager views;
};

// Runs `txns` update transactions against R (and every `s_every`-th round
// also against S) of a TwoTableWorkload, then drains capture.
void RunTwoTableHistory(Env* env, const TwoTableWorkload& workload,
                        size_t txns, uint64_t seed, size_t s_every = 2);

// Fixed-width table printing.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns, int width = 14);
  void PrintHeader() const;
  void PrintRow(const std::vector<std::string>& cells) const;

 private:
  std::vector<std::string> columns_;
  int width_;
};

std::string Fmt(double v, int precision = 2);
std::string FmtInt(uint64_t v);

// Median, min and max of one wall-time field over a point's repetitions
// (`v` must be non-empty).
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};
Spread SpreadOf(std::vector<double> v);

// Prints the standard experiment banner.
void Banner(const char* experiment_id, const char* claim);

// Machine-readable result sink alongside the printed table: accumulates
// one flat object per measured row and writes
// {"experiment": ..., "rows": [...]} to BENCH_<name>.json in the working
// directory, so sweeps can be plotted/diffed without scraping stdout.
class JsonReport {
 public:
  explicit JsonReport(std::string name);

  // Starts a new row; subsequent Num/Int/Str calls fill it.
  void BeginRow();
  void Num(const std::string& key, double value, int precision = 4);
  void Int(const std::string& key, uint64_t value);
  void Str(const std::string& key, const std::string& value);

  // Writes BENCH_<name>.json and prints the path; returns false (after
  // printing a warning) if the file cannot be written.
  bool Write() const;

  // Stamps a "serializer": "registry-snapshot-v1" line into the written
  // JSON, declaring that the rows were produced through RegistryRowEmitter
  // (i.e. sourced from a MetricsRegistry snapshot, not bespoke counters).
  // scripts/regen_benches.sh refuses baselines that lack the marker.
  void MarkRegistrySerializer() { registry_serializer_ = true; }

 private:
  std::string name_;
  bool registry_serializer_ = false;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// The one row serializer every bench shares: emits row fields into a
// JsonReport sourced from an obs::MetricsSnapshot, mapping each JSON key to
// a (metric name, label set) pair from the unified telemetry schema
// (ALGORITHMS.md section 10). Constructing one marks the report as
// registry-serialized. Plain Int/Num/Str passthroughs let bench-local
// values (wall-clock times, sweep parameters) interleave with
// registry-sourced counters in a single stable key order.
class RegistryRowEmitter {
 public:
  RegistryRowEmitter(JsonReport* report, const obs::MetricsSnapshot* snapshot)
      : report_(report), snapshot_(snapshot) {
    report_->MarkRegistrySerializer();
  }

  // Swaps the snapshot rows are sourced from (one emitter, many arms).
  void set_snapshot(const obs::MetricsSnapshot* snapshot) {
    snapshot_ = snapshot;
  }

  // Counter value for an exact label set; missing samples emit 0.
  void Counter(const std::string& json_key, const std::string& metric,
               const obs::Labels& labels = {});
  // Sum of a counter across all of its label sets.
  void CounterTotal(const std::string& json_key, const std::string& metric);
  // Sum of a counter over an explicit list of label sets (e.g. the
  // transient outcomes of both maintenance drivers).
  void CounterSum(const std::string& json_key, const std::string& metric,
                  const std::vector<obs::Labels>& label_sets);
  void Gauge(const std::string& json_key, const std::string& metric,
             const obs::Labels& labels = {});
  // Histogram percentile as integer microseconds (summaries store
  // nanoseconds); emits 0 when the metric is absent. `q` must be one of
  // the stored summary quantiles: 0.5, 0.95 or 0.99.
  void PercentileMicros(const std::string& json_key, const std::string& metric,
                        const obs::Labels& labels, double q);

  // Bench-local passthroughs.
  void Int(const std::string& json_key, uint64_t value) {
    report_->Int(json_key, value);
  }
  void Num(const std::string& json_key, double value, int precision = 4) {
    report_->Num(json_key, value, precision);
  }
  void Str(const std::string& json_key, const std::string& value) {
    report_->Str(json_key, value);
  }

 private:
  JsonReport* report_;
  const obs::MetricsSnapshot* snapshot_;
};

}  // namespace bench
}  // namespace rollview

#endif  // ROLLVIEW_BENCH_BENCH_UTIL_H_
