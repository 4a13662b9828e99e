// The per-layer metric set and the traced run's table.
#include <cstdio>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every traced run reports; a workload fills the ones
/// of the layers it drives.
const LayerMetric kLayerMetrics[] = {
    {"error_rate", "ratio"},
    {"sql.prepare_us.p50", "us"},
    {"sql.bind_us.p50", "us"},
    {"engine.submit_us.p50", "us"},
    {"engine.cursor_ms.p50", "ms"},
    {"engine.rss_growth_mb", "MiB"},
    {"sim.events_per_query", "count"},
    {"sim.events_per_routed", "count"},
    {"sim.virtual_ms_per_query", "ms"},
    {"eddy.routed_per_query", "count"},
    {"eddy.routing_ns_per_routed", "ns"},
    {"eddy.routing_share", "ratio"},
    {"eddy.constraint_violations", "count"},
    {"stem.builds_per_query", "count"},
    {"stem.probes_per_query", "count"},
    {"stem.matches_per_probe", "ratio"},
    {"stem.builds_avoided_ratio", "ratio"},
    {"am.rows_read_per_result", "ratio"},
    {"am.index_probes_per_query", "count"},
    {"sm.pass_ratio", "ratio"},
    {"runtime.allocs_per_routed", "count"},
    {"runtime.alloc_bytes_per_result", "B"},
    {"spill.ios_per_query", "count"},
    {"spill.bytes_per_query", "B"},
    {"spill.pool_hit_ratio", "ratio"},
    {"spill.pool_evictions_per_query", "count"},
    {"spill.partitions_spilled", "count"},
    {"exec.morsels_per_query", "count"},
    {"exec.worker_busy_share", "ratio"},
    {"exec.worker_skew", "ratio"},
    {"exec.shard_lock_waits_per_query", "count"},
    {"exec.shard_lock_wait_share", "ratio"},
    {"server.fetch_us.p50", "us"},
    {"server.fetch_us.p99", "us"},
    {"server.outside_fetch_us.p50", "us"},
    {"server.fetches_per_query", "count"},
    {"server.empty_fetch_frac", "ratio"},
    {"server.queue_high_water", "count"},
    {"server.queued_frac", "ratio"},
    {"server.rejected_frac", "ratio"},
    {"server.engine_ticks_per_query", "count"},
    {"obs.trace_overhead", "ratio"},
};

}  // namespace

std::string FinishLayerTable(const std::string& workload,
                             const SpanRecorder& spans, Metrics* m) {
  for (const LayerMetric& lm : kLayerMetrics) {
    if (!m->Has(lm.name)) m->Set(lm.name, 0, lm.unit);
  }
  std::string out = "per-layer self time (" + workload + ", traced run)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-16s %8s %12s %12s %8s\n", "span",
                "count", "total_ms", "self_ms", "self%");
  out += line;
  const auto times = spans.LayerTimes();
  double all_self = 0;
  for (const auto& [name, t] : times) all_self += t.self_ms;
  for (const auto& [name, t] : times) {
    std::snprintf(line, sizeof(line), "  %-16s %8llu %12.3f %12.3f %7.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(t.spans),
                  t.total_ms, t.self_ms, 100.0 * Ratio(t.self_ms, all_self));
    out += line;
  }
  out += "per-layer counts (" + workload + ")\n";
  std::string layer;
  for (const auto& [name, e] : m->entries()) {
    const std::string prefix = name.substr(0, name.find('.'));
    if (prefix != layer) {
      layer = prefix;
      out += "  [" + layer + "]\n";
    }
    std::snprintf(line, sizeof(line), "    %-34s %16.6g %s\n", name.c_str(),
                  e.value, e.unit.c_str());
    out += line;
  }
  return out;
}

}  // namespace perfbench
