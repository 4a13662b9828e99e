// The four workloads (README.md says why each exists and what it bypasses).
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty = not
  /// written.
  std::string trace_out;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  Metrics metrics;
  /// Median HostClock::Factor over the untraced run's segments (0 in the
  /// traced run); the run record carries it.
  double clock_factor = 0;
  /// The traced run's per-layer self-time and count table.
  std::string layer_table;
  /// Spans of the traced run (written out at exit).
  SpanRecorder spans;
};

/// join_sim, join_threaded and spill_sim: one in-process caller, one query
/// at a time.
void RunInProcess(const RunArgs& args, RunResult* out);

/// server_mix: loopback server, closed loop on four connections.
void RunServerMix(const RunArgs& args, RunResult* out);

/// Fills every per-layer metric that `m` lacks
/// with 0 (the workload bypasses that layer) and renders the traced run's
/// table: span self times, then the metrics grouped by layer.
std::string FinishLayerTable(const std::string& workload,
                             const SpanRecorder& spans, Metrics* m);

}  // namespace perfbench
