#include "obs/inspect.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <vector>

namespace rollview {
namespace obs {

namespace {

std::string LabelsText(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + labels[i].second + "\"";
  }
  out += "}";
  return out;
}

void Append(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

// A gauge cell for the digest: the value when the sample exists, `-` when
// the metric is absent from the snapshot. GaugeValue alone cannot tell an
// absent gauge from a true zero.
std::string GaugeCell(const MetricsSnapshot& snapshot, const std::string& name,
                      const Labels& labels) {
  const Sample* s = snapshot.Find(name, labels);
  if (s == nullptr) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, s->gauge);
  return buf;
}

std::string CounterCell(const MetricsSnapshot& snapshot,
                        const std::string& name, const Labels& labels) {
  const Sample* s = snapshot.Find(name, labels);
  if (s == nullptr) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, s->counter);
  return buf;
}

// Milliseconds with one decimal, from nanos.
std::string MillisCell(uint64_t nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(nanos) / 1e6);
  return buf;
}

// The shedding cell: the reason label of the view's
// rollview_shedding_reason series that reads 1, or `-` when the view
// exports no such gauge.
std::string SheddingCell(const MetricsSnapshot& snapshot,
                         const std::string& view) {
  std::string reason = "-";
  for (const Sample& s : snapshot.samples()) {
    if (s.name != "rollview_shedding_reason" || s.gauge == 0) continue;
    std::string sample_view, sample_reason;
    for (const auto& [k, v] : s.labels) {
      if (k == "view") sample_view = v;
      if (k == "reason") sample_reason = v;
    }
    if (sample_view == view) reason = sample_reason;
  }
  return reason;
}

// The views present in a snapshot: the label values of the hwm gauge every
// maintained view registers.
std::set<std::string> ViewsIn(const MetricsSnapshot& snapshot) {
  std::set<std::string> views;
  for (const Sample& s : snapshot.samples()) {
    if (s.name != "rollview_view_hwm_csn") continue;
    for (const auto& [k, v] : s.labels) {
      if (k == "view") views.insert(v);
    }
  }
  return views;
}

}  // namespace

std::string RenderSnapshot(const MetricsSnapshot& snapshot) {
  std::string out;
  const std::string* current = nullptr;
  for (const Sample& s : snapshot.samples()) {
    if (current == nullptr || *current != s.name) {
      if (current != nullptr) out += "\n";
      const char* kind = s.kind == MetricKind::kCounter   ? "counter"
                         : s.kind == MetricKind::kGauge   ? "gauge"
                                                          : "histogram";
      Append(&out, "%s (%s)\n", s.name.c_str(), kind);
      current = &s.name;
    }
    std::string labels = LabelsText(s.labels);
    switch (s.kind) {
      case MetricKind::kCounter:
        Append(&out, "  %-56s %" PRIu64 "\n", labels.c_str(), s.counter);
        break;
      case MetricKind::kGauge:
        Append(&out, "  %-56s %" PRId64 "\n", labels.c_str(), s.gauge);
        break;
      case MetricKind::kHistogram:
        Append(&out,
               "  %-56s count=%" PRIu64 " p50=%.1fus p95=%.1fus p99=%.1fus"
               " max=%.1fus\n",
               labels.c_str(), s.hist.count,
               static_cast<double>(s.hist.p50) / 1e3,
               static_cast<double>(s.hist.p95) / 1e3,
               static_cast<double>(s.hist.p99) / 1e3,
               static_cast<double>(s.hist.max_nanos) / 1e3);
        break;
    }
  }
  return out;
}

std::string RenderViewDigest(const MetricsSnapshot& snapshot) {
  std::set<std::string> views = ViewsIn(snapshot);
  if (views.empty()) return "";

  std::string out = "views:\n";
  for (const std::string& view : views) {
    const Labels lv{{"view", view}};
    // Find-based cells: a gauge the view never registered (e.g. shedding
    // telemetry on a non-adaptive service snapshotted by a bare registry)
    // renders as `-`, not a fake 0.
    Append(&out,
           "  %-12s hwm=%s mv=%s staleness=%s target_rows=%s backlog=%s"
           " shedding=%s\n",
           view.c_str(),
           GaugeCell(snapshot, "rollview_view_hwm_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_mv_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_staleness_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_target_rows", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_backlog_rows", lv).c_str(),
           SheddingCell(snapshot, view).c_str());
    // Freshness digest, present only when the view exports the pipeline.
    const HistogramSummary* e2e =
        snapshot.Histogram("rollview_freshness_e2e_nanos", lv);
    if (e2e != nullptr) {
      Append(&out,
             "  %-12s staleness=%sus e2e p50=%sms p99=%sms commits=%s"
             " evicted=%s slo_burn=%s\n",
             "",
             GaugeCell(snapshot, "rollview_view_staleness_usec", lv).c_str(),
             MillisCell(e2e->p50).c_str(), MillisCell(e2e->p99).c_str(),
             CounterCell(snapshot, "rollview_freshness_commits_total", lv)
                 .c_str(),
             CounterCell(snapshot, "rollview_freshness_evicted_total", lv)
                 .c_str(),
             GaugeCell(snapshot, "rollview_slo_burn_x1000", lv).c_str());
    }
  }
  return out;
}

std::string RenderWatchFrame(const MetricsSnapshot& snapshot, uint64_t frame) {
  std::set<std::string> views = ViewsIn(snapshot);
  std::string out;
  Append(&out, "rollview watch  frame=%" PRIu64 "  views=%zu\n", frame,
         views.size());
  if (views.empty()) {
    out += "  (no per-view gauges in snapshot)\n";
    return out;
  }
  for (const std::string& view : views) {
    const Labels lv{{"view", view}};
    Append(&out,
           "%-12s hwm=%s mv=%s staleness=%scsn/%sus backlog=%s shedding=%s\n",
           view.c_str(),
           GaugeCell(snapshot, "rollview_view_hwm_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_mv_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_staleness_csn", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_staleness_usec", lv).c_str(),
           GaugeCell(snapshot, "rollview_view_backlog_rows", lv).c_str(),
           SheddingCell(snapshot, view).c_str());
    const HistogramSummary* e2e =
        snapshot.Histogram("rollview_freshness_e2e_nanos", lv);
    if (e2e == nullptr) {
      Append(&out, "  freshness  -\n");
    } else {
      Append(&out,
             "  freshness  p50=%sms p95=%sms p99=%sms max=%sms"
             "  commits=%s evicted=%s\n",
             MillisCell(e2e->p50).c_str(), MillisCell(e2e->p95).c_str(),
             MillisCell(e2e->p99).c_str(), MillisCell(e2e->max_nanos).c_str(),
             CounterCell(snapshot, "rollview_freshness_commits_total", lv)
                 .c_str(),
             CounterCell(snapshot, "rollview_freshness_evicted_total", lv)
                 .c_str());
      // Stage shares: the stage sums telescope to the e2e sum exactly, so
      // each stage's share of total time is its sum over the e2e sum.
      static const char* kStages[] = {"durable", "pickup", "propagate",
                                      "apply"};
      out += "  stages    ";
      for (const char* stage : kStages) {
        const HistogramSummary* h =
            snapshot.Histogram("rollview_freshness_stage_nanos",
                               {{"view", view}, {"stage", stage}});
        if (h == nullptr || e2e->sum_nanos == 0) {
          Append(&out, " %s=-", stage);
        } else {
          Append(&out, " %s=%.0f%%", stage,
                 100.0 * static_cast<double>(h->sum_nanos) /
                     static_cast<double>(e2e->sum_nanos));
        }
      }
      out += "\n";
    }
    const Sample* burn = snapshot.Find("rollview_slo_burn_x1000", lv);
    if (burn != nullptr) {
      const Sample* breaching = snapshot.Find("rollview_slo_breaching", lv);
      Append(&out, "  slo        target=%sus burn=%.2f breaching=%s sheds=%s\n",
             GaugeCell(snapshot, "rollview_slo_target_usec", lv).c_str(),
             static_cast<double>(burn->gauge) / 1000.0,
             breaching == nullptr ? "-"
                                  : (breaching->gauge != 0 ? "YES" : "no"),
             CounterCell(snapshot, "rollview_slo_events_total",
                         {{"view", view}, {"event", "shed_entry"}})
                 .c_str());
    }
    Append(&out, "  drivers    propagate ok=%s err=%s  apply ok=%s err=%s\n",
           CounterCell(snapshot, "rollview_step_total",
                       {{"view", view}, {"driver", "propagate"},
                        {"outcome", "ok"}})
               .c_str(),
           CounterCell(snapshot, "rollview_step_total",
                       {{"view", view}, {"driver", "propagate"},
                        {"outcome", "transient_error"}})
               .c_str(),
           CounterCell(snapshot, "rollview_step_total",
                       {{"view", view}, {"driver", "apply"},
                        {"outcome", "ok"}})
               .c_str(),
           CounterCell(snapshot, "rollview_step_total",
                       {{"view", view}, {"driver", "apply"},
                        {"outcome", "transient_error"}})
               .c_str());
  }
  return out;
}

std::string RenderInspectReport(const MetricsSnapshot& snapshot,
                                const TraceJournal* journal, size_t last_n) {
  std::string out;
  std::string digest = RenderViewDigest(snapshot);
  if (!digest.empty()) {
    out += digest;
    out += "\n";
  }
  out += RenderSnapshot(snapshot);
  if (journal != nullptr && last_n > 0) {
    Append(&out, "\nlast %zu step traces (%" PRIu64 " recorded, %zu retained):\n",
           last_n, journal->recorded(), journal->Snapshot().size());
    out += journal->DumpTrace(last_n);
  }
  return out;
}

}  // namespace obs
}  // namespace rollview
