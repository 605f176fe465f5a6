#include "bench_util.h"

#include <algorithm>
#include <cstdlib>

namespace rollview {
namespace bench {

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "BENCH FATAL (%s): %s\n", what,
                 s.ToString().c_str());
    std::abort();
  }
}

void RunTwoTableHistory(Env* env, const TwoTableWorkload& workload,
                        size_t txns, uint64_t seed, size_t s_every) {
  UpdateStream r_stream(&env->db, workload.RStream(seed % 1000 + 1, seed),
                        seed);
  UpdateStream s_stream(&env->db,
                        workload.SStream(seed % 1000 + 500, seed + 1),
                        seed + 1);
  for (size_t i = 0; i < txns; ++i) {
    CheckOk(r_stream.RunTransaction(), "R update");
    if (s_every != 0 && i % s_every == 0) {
      CheckOk(s_stream.RunTransaction(), "S update");
    }
  }
  env->capture.CatchUp();
}

TablePrinter::TablePrinter(std::vector<std::string> columns, int width)
    : columns_(std::move(columns)), width_(width) {}

void TablePrinter::PrintHeader() const {
  for (const std::string& c : columns_) {
    std::printf("%-*s", width_, c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (int j = 0; j < width_ - 2; ++j) std::printf("-");
    std::printf("  ");
  }
  std::printf("\n");
}

void TablePrinter::PrintRow(const std::vector<std::string>& cells) const {
  for (const std::string& c : cells) {
    std::printf("%-*s", width_, c.c_str());
  }
  std::printf("\n");
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtInt(uint64_t v) { return std::to_string(v); }

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  Spread s;
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  s.min = v.front();
  s.max = v.back();
  return s;
}

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {}

void JsonReport::BeginRow() { rows_.emplace_back(); }

void JsonReport::Num(const std::string& key, double value, int precision) {
  rows_.back().emplace_back(key, Fmt(value, precision));
}

void JsonReport::Int(const std::string& key, uint64_t value) {
  rows_.back().emplace_back(key, std::to_string(value));
}

void JsonReport::Str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  rows_.back().emplace_back(key, quoted);
}

bool JsonReport::Write() const {
  std::string path = "BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"experiment\": \"%s\",\n", name_.c_str());
  if (registry_serializer_) {
    // Baseline readers skip this line (no row brace, mentions no row keys);
    // regen_benches.sh greps for it to prove the shared serializer ran.
    std::fprintf(f, "  \"serializer\": \"registry-snapshot-v1\",\n");
  }
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "    {");
    for (size_t j = 0; j < rows_[i].size(); ++j) {
      std::fprintf(f, "%s\"%s\": %s", j == 0 ? "" : ", ",
                   rows_[i][j].first.c_str(), rows_[i][j].second.c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

void RegistryRowEmitter::Counter(const std::string& json_key,
                                 const std::string& metric,
                                 const obs::Labels& labels) {
  report_->Int(json_key, snapshot_->CounterValue(metric, labels));
}

void RegistryRowEmitter::CounterTotal(const std::string& json_key,
                                      const std::string& metric) {
  report_->Int(json_key, snapshot_->CounterTotal(metric));
}

void RegistryRowEmitter::CounterSum(
    const std::string& json_key, const std::string& metric,
    const std::vector<obs::Labels>& label_sets) {
  uint64_t sum = 0;
  for (const obs::Labels& labels : label_sets) {
    sum += snapshot_->CounterValue(metric, labels);
  }
  report_->Int(json_key, sum);
}

void RegistryRowEmitter::Gauge(const std::string& json_key,
                               const std::string& metric,
                               const obs::Labels& labels) {
  report_->Int(json_key,
               static_cast<uint64_t>(snapshot_->GaugeValue(metric, labels)));
}

void RegistryRowEmitter::PercentileMicros(const std::string& json_key,
                                          const std::string& metric,
                                          const obs::Labels& labels, double q) {
  const obs::HistogramSummary* h = snapshot_->Histogram(metric, labels);
  uint64_t nanos = 0;
  if (h != nullptr) {
    nanos = q <= 0.5 ? h->p50 : (q <= 0.95 ? h->p95 : h->p99);
  }
  report_->Int(json_key, nanos / 1000);
}

void Banner(const char* experiment_id, const char* claim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n%s\n", experiment_id, claim);
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace bench
}  // namespace rollview
