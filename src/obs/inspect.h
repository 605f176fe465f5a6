// Copyright 2026 The rollview Authors.
//
// Human-oriented renderers over the telemetry layer's two export surfaces:
// a MetricsSnapshot (registry scrape) and a TraceJournal (retained step
// traces). The machine formats live next to the data they serialize
// (MetricsSnapshot::ToPrometheusText/ToJson, TraceJournal::ToJson); these
// functions produce the operator view the rollview_inspect CLI prints --
// metrics grouped by name with aligned values, and a per-view staleness
// digest pulled from the derived gauges.

#ifndef ROLLVIEW_OBS_INSPECT_H_
#define ROLLVIEW_OBS_INSPECT_H_

#include <cstddef>
#include <string>

#include "obs/registry.h"
#include "obs/trace.h"

namespace rollview {
namespace obs {

// Renders every sample grouped by metric name: one header line per metric,
// one indented `{labels} value` line per sample (histograms as
// count/p50/p95/p99/max). Sorted like the snapshot itself, so output is
// stable across scrapes of the same state.
std::string RenderSnapshot(const MetricsSnapshot& snapshot);

// One line per view found in the snapshot's derived gauges: hwm / mv CSN /
// staleness / rows-per-query target / backlog / shedding reason, plus a
// freshness line (time-domain staleness, e2e percentiles, SLO burn) when
// the view exports the freshness pipeline. Empty string when the snapshot
// has no per-view gauges. A metric absent from the snapshot renders as `-`
// -- distinguishable from a true zero.
std::string RenderViewDigest(const MetricsSnapshot& snapshot);

// One `--watch` dashboard frame: per-view freshness percentiles, stage
// breakdown (share of end-to-end time per pipeline stage), backlog and
// shedding reason and SLO state, plus driver step counters. `frame` is the refresh
// counter shown in the header. Metrics a view does not export render as
// `-`, like the digest.
std::string RenderWatchFrame(const MetricsSnapshot& snapshot, uint64_t frame);

// The full inspect report: view digest, grouped metrics, then the last
// `last_n` step traces from `journal` (skipped when null -- tracing
// disabled). This is exactly what rollview_inspect prints.
std::string RenderInspectReport(const MetricsSnapshot& snapshot,
                                const TraceJournal* journal, size_t last_n);

}  // namespace obs
}  // namespace rollview

#endif  // ROLLVIEW_OBS_INSPECT_H_
