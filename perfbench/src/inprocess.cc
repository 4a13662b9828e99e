// join_sim, join_threaded, spill_sim: the in-process closed loop. One
// caller prepares the chain join once, then binds, submits and drains it
// one query at a time through the public Engine API.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataset.h"
#include "reference/brute_force.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stems::RunOptions;

/// Queries run (and checked) before the measured phase; a count, not a
/// time, so the traced run's counted queries are the same on every host.
constexpr size_t kWarmupQueries = 40;
/// The measured phase is cut into segments of about this length, with a
/// short batch of engine set-ups after each (and one before the first);
/// setup_s is the mean of the batches' medians (SetupSeconds). One batch a
/// second, each on the next CPU, samples the host's slow phases and every
/// vCPU evenly.
constexpr double kSegmentSeconds = 1.0;
/// The untraced run reads the host clock this often, between queries, and
/// scales the timings in between by the readings at both ends (HostClock).
constexpr double kClockSeconds = 0.25;
/// Wall time of one batch of repeated set-ups.
constexpr double kSetupBatchSeconds = 0.015;
/// Traced run: queries alternate between traced and untraced blocks of this
/// size, so obs.trace_overhead compares neighbours in time.
constexpr size_t kTraceBlock = 16;
/// How long the caller stays on one CPU (CpuRotor).
constexpr double kCpuRotateMs = 100;
/// Traced queries whose counters make up the per-layer counts. Fixed, so the
/// sim executor's counts repeat exactly for a seed.
constexpr size_t kCountedQueries = 160;

/// All three workloads share data and statement.
constexpr Sizes kSizes{200, 200, 100, 70, 50};

RunOptions OptionsFor(const std::string& workload) {
  if (workload == "join_sim") {
    RunOptions o = RunOptions::Paper();
    // Competitive access (§3.2, §4.1): T's SteM bounces every uncovered
    // probe back, so the benefit/cost policy races T's index AM against
    // its scan instead of leaving the match to the scan alone.
    o.exec.stem_overrides["T"].bounce_mode = stems::ProbeBounceMode::kAlways;
    return o;
  }
  if (workload == "join_threaded") return RunOptions::Threaded(2);
  // ~500 SteM builds per query: about five times the budget.
  return RunOptions::LargerThanMemory(96);
}

/// Registry counters read before and after each traced query.
struct RegistrySnapshot {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t lock_waits = 0;
  uint64_t lock_wait_ns = 0;

  static RegistrySnapshot Read(stems::obs::MetricsRegistry& r) {
    return {r.GetCounter("spill.pool_hits")->value(),
            r.GetCounter("spill.pool_misses")->value(),
            r.GetCounter("spill.pool_evictions")->value(),
            r.GetCounter("exec.shard_lock_waits")->value(),
            r.GetCounter("exec.shard_lock_wait_ns")->value()};
  }
};

/// Sums over the counted queries (deterministic on the sim executor).
struct Counts {
  uint64_t queries = 0;
  uint64_t events = 0;
  uint64_t virtual_us = 0;
  uint64_t routed = 0;
  uint64_t results = 0;
  uint64_t violations = 0;
  uint64_t builds = 0;
  uint64_t probes = 0;
  uint64_t matches = 0;
  uint64_t am_rows = 0;
  uint64_t index_probes = 0;
  uint64_t sm_in = 0;
  uint64_t sm_out = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t spill_ios = 0;
  uint64_t spill_bytes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t partitions_spilled = 0;
  uint64_t morsels = 0;
  uint64_t lock_waits = 0;
};

/// Wall-clock sums over every traced query (host- and schedule-dependent).
struct WallSums {
  double query_ms = 0;
  double routing_ms = 0;
  double thread_ms = 0;  ///< query wall time x routing threads
  double worker_busy_ms = 0;
  double worker_capacity_ms = 0;  ///< workers x query wall time
  double lock_wait_ms = 0;
  double skew_sum = 0;
  uint64_t skew_queries = 0;
};

struct QueryTiming {
  double latency_ms = 0;
  double first_row_ms = 0;
  double bind_us = 0;
  double submit_us = 0;
  double cursor_ms = 0;
  size_t rows = 0;
};

struct Before {
  AllocCounts allocs;
  uint64_t events = 0;
  stems::SimTime virtual_now = 0;
  RegistrySnapshot registry;
};

class InProcessRun {
 public:
  InProcessRun(const RunArgs& args, RunResult* out)
      : args_(args), out_(out), options_(OptionsFor(args.workload)),
        stmt_(ChainJoinStatement()), draws_(args.seed),
        // The threaded executor's workers inherit the caller's CPU mask, so
        // its queries run unpinned; only set-up moves between CPUs there.
        rotate_queries_(options_.executor == stems::ExecutorKind::kSim),
        rotor_(kCpuRotateMs) {}

  void Run() {
    Setup();
    double warmup_ms = 0;
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      QueryTiming t;
      RunOne(NextDraw(), false, &t);
      warmup_ms += t.latency_ms;
    }
    if (args_.trace) {
      const size_t bound =
          QueryBound(args_.seconds, warmup_ms / kWarmupQueries);
      for (auto* v : {&latency_ms_, &first_row_ms_, &traced_latency_ms_,
                      &bind_us_, &submit_us_, &cursor_ms_}) {
        Pretouch(v, bound);
      }
      // Four spans per traced query; half the queries are traced.
      out_->spans.Preallocate(2 * bound);
    }
    rss_after_warmup_mb_ = RssMb();
    if (!args_.trace) clock_ns_ = clock_.NsPerStep();
    const size_t segments = std::max<size_t>(
        2, static_cast<size_t>(std::lround(args_.seconds / kSegmentSeconds)));
    for (size_t segment = 0; segment < segments; ++segment) {
      Measure(args_.seconds / static_cast<double>(segments));
      if (!args_.trace) SetupBatch(/*keep_last=*/false);
    }
    if (args_.trace) {
      rss_growth_mb_ = RssMb() - rss_after_warmup_mb_;
      ReportLayers();
    } else {
      ReportEndToEnd();
    }
  }

 private:
  void Setup() {
    data_ = MakeDataset(kSizes);
    if (!args_.trace) clock_ns_ = clock_.NsPerStep();
    SetupBatch(/*keep_last=*/true);
    reference_.Compute(engine_.get(), {stmt_});
    size_t most_rows = 0;
    for (size_t p = 0; p < stmt_.grid.size(); ++p) {
      most_rows = std::max(most_rows, reference_.Expected({0, p}).size());
    }
    Pretouch(&rows_, most_rows);
  }

  /// Times engine start + table load + Prepare, over and over for
  /// kSetupBatchSeconds, at the clock last read. With keep_last the final
  /// engine serves the run.
  void SetupBatch(bool keep_last) {
    SpanRecorder* spans = args_.trace ? &out_->spans : nullptr;
    std::vector<double> batch;
    const Clock::time_point batch_start = Clock::now();
    while (MsBetween(batch_start, Clock::now()) < kSetupBatchSeconds * 1e3) {
      rotor_.Tick();
      const Clock::time_point t0 = Clock::now();
      ScopedSpan setup_span(spans, "setup", 0);
      auto engine = std::make_unique<stems::Engine>();
      {
        ScopedSpan span(spans, "engine.load", 0);
        LoadTables(data_, engine.get());
      }
      const Clock::time_point t1 = Clock::now();
      auto prepared = [&] {
        ScopedSpan span(spans, "sql.prepare", 0);
        return engine->Prepare(stmt_.sql);
      }();
      const Clock::time_point t2 = Clock::now();
      if (!prepared.ok()) {
        std::fprintf(stderr, "perfbench: Prepare: %s\n",
                     prepared.status().ToString().c_str());
        std::exit(1);
      }
      batch.push_back(MsBetween(t0, t2) / 1e3);
      prepare_us_.push_back(UsBetween(t1, t2));
      if (keep_last) {
        prepared_ = std::move(prepared).Value();
        engine_ = std::move(engine);  // the previous one is destroyed untimed
      }
    }
    setup_batch_s_.push_back(Median(batch) * HostClock::Factor(clock_ns_));
    if (!rotate_queries_) rotor_.Release();
  }

  /// Runs queries for `seconds`; the traced run alternates traced and
  /// untraced blocks, the untraced run reads the host clock every
  /// kClockSeconds.
  void Measure(double seconds) {
    const Clock::time_point start = Clock::now();
    Clock::time_point span_start = start;
    size_t span_first = latency_ms_.size();
    double span_measured_ms = measured_ms_;
    while (true) {
      const Clock::time_point now = Clock::now();
      const bool done = MsBetween(start, now) >= seconds * 1e3;
      if (!args_.trace &&
          (done || MsBetween(span_start, now) >= kClockSeconds * 1e3)) {
        ScaleToClock(span_first, span_measured_ms);
        span_start = Clock::now();
        span_first = latency_ms_.size();
        span_measured_ms = measured_ms_;
      }
      if (done) break;
      const bool traced =
          args_.trace && (measured_queries_++ / kTraceBlock) % 2 == 0;
      QueryTiming t;
      RunOne(NextDraw(), traced, &t);
      if (traced) {
        traced_latency_ms_.push_back(t.latency_ms);
        bind_us_.push_back(t.bind_us);
        submit_us_.push_back(t.submit_us);
        cursor_ms_.push_back(t.cursor_ms);
        continue;
      }
      latency_ms_.push_back(t.latency_ms);
      first_row_ms_.push_back(t.first_row_ms);
      measured_ms_ += t.latency_ms;
      measured_rows_ += t.rows;
    }
  }

  /// Reads the host clock and scales the timings since `first` (and the
  /// measured time since `measured_ms`) by the mean of this reading and
  /// the previous one.
  void ScaleToClock(size_t first, double measured_ms) {
    const double ns = clock_.NsPerStep();
    const double factor = HostClock::Factor((clock_ns_ + ns) / 2);
    clock_ns_ = ns;
    for (size_t i = first; i < latency_ms_.size(); ++i) {
      latency_ms_[i] *= factor;
      first_row_ms_[i] *= factor;
    }
    measured_ms_ = measured_ms + (measured_ms_ - measured_ms) * factor;
    clock_factors_.push_back(factor);
  }

  QueryDraw NextDraw() {
    return {0, static_cast<size_t>(draws_.Uniform(
                   static_cast<int64_t>(stmt_.grid.size())))};
  }

  /// Runs and checks one query. A failed or wrong query counts against
  /// error_rate (and makes the run incorrect); its timing still counts.
  void RunOne(const QueryDraw& draw, bool traced, QueryTiming* t) {
    if (rotate_queries_) rotor_.Tick();
    SpanRecorder* spans = traced ? &out_->spans : nullptr;
    const uint64_t qid = next_query_id_++;
    const bool counted = traced && counts_.queries < kCountedQueries;
    Before before;
    if (traced) {
      before.events = engine_->sim().events_processed();
      before.virtual_now = engine_->sim().now();
      before.registry = RegistrySnapshot::Read(engine_->metrics_registry());
    }
    rows_.clear();
    if (counted) {
      // The benchmark's own containers must not allocate while counting.
      spans->Reserve(4);
      SetAllocCounting(true);
      before.allocs = ReadAllocCounts();
    }
    bool ok = true;
    std::string error;
    stems::QueryHandle handle;
    Clock::time_point t0, t1, t2, t_first, t_end;
    {
      ScopedSpan query_span(spans, "query", qid);
      t0 = Clock::now();
      stems::BoundQuery bound = [&] {
        ScopedSpan span(spans, "sql.bind", qid);
        return prepared_->Bind(stmt_.Params(draw.point));
      }();
      t1 = Clock::now();
      auto submitted = [&] {
        ScopedSpan span(spans, "engine.submit", qid);
        return bound.Submit(options_);
      }();
      t2 = Clock::now();
      t_first = t_end = t2;
      if (submitted.ok()) {
        handle = std::move(submitted).Value();
        ScopedSpan span(spans, "engine.cursor", qid);
        stems::ResultCursor cursor = handle.cursor();
        while (std::optional<stems::RowView> row = cursor.NextRow()) {
          if (rows_.empty()) t_first = Clock::now();
          rows_.push_back(std::move(*row));
        }
        t_end = Clock::now();
        if (rows_.empty()) t_first = t_end;
      } else {
        ok = false;
        error = submitted.status().ToString();
      }
    }
    AllocCounts allocs;
    if (counted) {
      allocs = ReadAllocCounts();
      SetAllocCounting(false);
    }

    t->latency_ms = MsBetween(t0, t_end);
    t->first_row_ms = MsBetween(t0, t_first);
    t->bind_us = UsBetween(t0, t1);
    t->submit_us = UsBetween(t1, t2);
    t->cursor_ms = MsBetween(t2, t_end);
    t->rows = rows_.size();

    if (ok && !handle.status().ok()) {
      ok = false;
      error = handle.status().ToString();
    }
    if (ok) {
      std::vector<std::string> keys;
      keys.reserve(rows_.size());
      for (const stems::RowView& row : rows_) {
        keys.push_back(stems::ResultKey(*row.tuple()));
        if (ok && !ProjectionMatches(stmt_, row)) {
          ok = false;
          error = "projected values differ from their tuple: " +
                  row.ToString();
        }
      }
      if (ok && !reference_.Check(draw, std::move(keys))) {
        ok = false;
        error = "rows differ from the reference result set (" +
                std::to_string(rows_.size()) + " rows, expected " +
                std::to_string(reference_.Expected(draw).size()) + ")";
      }
    }
    ++out_->attempted;
    if (!ok) {
      ++out_->failed;
      out_->correct = false;
      std::fprintf(stderr, "perfbench: query %llu (%s point %zu): %s\n",
                   static_cast<unsigned long long>(qid), stmt_.name.c_str(),
                   draw.point, error.c_str());
    }
    if (traced && handle.valid()) {
      CollectWall(handle, before, t->latency_ms);
      if (counted) Collect(handle, before, allocs);
    }
  }

  void Collect(const stems::QueryHandle& handle, const Before& before,
               const AllocCounts& allocs) {
    const stems::QueryStats stats = handle.Stats();
    const stems::obs::QueryProfile profile = handle.Profile();
    const RegistrySnapshot after =
        RegistrySnapshot::Read(engine_->metrics_registry());
    Counts& c = counts_;
    ++c.queries;
    c.events += engine_->sim().events_processed() - before.events;
    if (stats.executor == "sim" && stats.completed_at != stems::kSimTimeNever) {
      c.virtual_us +=
          static_cast<uint64_t>(stats.completed_at - before.virtual_now);
    }
    c.routed += stats.tuples_routed;
    c.results += stats.num_results;
    c.violations += stats.constraint_violations;
    c.spill_ios += stats.spill_ios;
    c.spill_bytes += stats.bytes_spilled;
    c.partitions_spilled += stats.partitions_spilled;
    for (const auto& row : profile.modules) {
      if (row.kind == "SteM" || row.kind == "worker") {
        c.builds += row.builds;
        c.probes += row.probes;
        c.matches += row.matches;
      } else if (row.kind == "ScanAM" || row.kind == "IndexAM") {
        c.am_rows += row.tuples_out;
        if (row.kind == "IndexAM") c.index_probes += row.tuples_in;
      } else if (row.kind == "SM") {
        c.sm_in += row.tuples_in;
        c.sm_out += row.tuples_out;
      }
    }
    for (const auto& w : stats.worker_counters) c.morsels += w.morsels;
    c.allocs += allocs.allocs - before.allocs.allocs;
    c.alloc_bytes += allocs.bytes - before.allocs.bytes;
    c.pool_hits += after.pool_hits - before.registry.pool_hits;
    c.pool_misses += after.pool_misses - before.registry.pool_misses;
    c.pool_evictions += after.pool_evictions - before.registry.pool_evictions;
    c.lock_waits += after.lock_waits - before.registry.lock_waits;
  }

  void CollectWall(const stems::QueryHandle& handle, const Before& before,
                   double query_ms) {
    const stems::QueryStats stats = handle.Stats();
    traced_routed_ += stats.tuples_routed;
    wall_.query_ms += query_ms;
    wall_.routing_ms += static_cast<double>(stats.routing_wall_ns) / 1e6;
    // Workers route in parallel: routing_share is over all their time.
    wall_.thread_ms +=
        query_ms * static_cast<double>(
                       std::max<size_t>(1, stats.worker_counters.size()));
    if (!stats.worker_counters.empty()) {
      uint64_t max_routed = 0, sum_routed = 0;
      for (const auto& w : stats.worker_counters) {
        wall_.worker_busy_ms += static_cast<double>(w.routing_wall_ns) / 1e6;
        max_routed = std::max(max_routed, w.tuples_routed);
        sum_routed += w.tuples_routed;
      }
      const double n = static_cast<double>(stats.worker_counters.size());
      wall_.worker_capacity_ms += n * query_ms;
      if (sum_routed > 0) {
        wall_.skew_sum += static_cast<double>(max_routed) /
                          (static_cast<double>(sum_routed) / n);
        ++wall_.skew_queries;
      }
    }
    const uint64_t wait_ns =
        RegistrySnapshot::Read(engine_->metrics_registry()).lock_wait_ns;
    wall_.lock_wait_ms +=
        static_cast<double>(wait_ns - before.registry.lock_wait_ns) / 1e6;
  }

  void ReportEndToEnd() {
    Metrics& m = out_->metrics;
    RequireTailSamples("latency_ms.p90", latency_ms_.size(), 0.90);
    m.Set("setup_s", SetupSeconds(setup_batch_s_), "s");
    m.Set("latency_ms.p50", Quantile(latency_ms_, 0.50), "ms");
    m.Set("latency_ms.p90", Quantile(latency_ms_, 0.90), "ms");
    m.Set("first_row_ms.p50", Median(first_row_ms_), "ms");
    m.Set("rows_per_s", Ratio(static_cast<double>(measured_rows_),
                              measured_ms_ / 1e3),
          "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    out_->clock_factor = Median(clock_factors_);
  }

  void ReportLayers() {
    Metrics& m = out_->metrics;
    const Counts& c = counts_;
    const double q = static_cast<double>(c.queries);
    const double routed = static_cast<double>(c.routed);
    const double results = static_cast<double>(c.results);
    m.Set("error_rate", Ratio(static_cast<double>(out_->failed),
                              static_cast<double>(out_->attempted)),
          "ratio");
    m.Set("sql.prepare_us.p50", Median(prepare_us_), "us");
    m.Set("sql.bind_us.p50", Median(bind_us_), "us");
    m.Set("engine.submit_us.p50", Median(submit_us_), "us");
    m.Set("engine.cursor_ms.p50", Median(cursor_ms_), "ms");
    m.Set("engine.rss_growth_mb", rss_growth_mb_, "MiB");
    m.Set("sim.events_per_query", Ratio(c.events, q), "count");
    m.Set("sim.events_per_routed", Ratio(c.events, routed), "count");
    m.Set("sim.virtual_ms_per_query", Ratio(c.virtual_us / 1e3, q), "ms");
    m.Set("eddy.routed_per_query", Ratio(routed, q), "count");
    m.Set("eddy.routing_ns_per_routed",
          Ratio(wall_.routing_ms * 1e6,
                static_cast<double>(traced_routed_)),
          "ns");
    m.Set("eddy.routing_share", Ratio(wall_.routing_ms, wall_.thread_ms),
          "ratio");
    m.Set("eddy.constraint_violations", static_cast<double>(c.violations),
          "count");
    m.Set("stem.builds_per_query", Ratio(c.builds, q), "count");
    m.Set("stem.probes_per_query", Ratio(c.probes, q), "count");
    m.Set("stem.matches_per_probe", Ratio(c.matches, c.probes), "ratio");
    m.Set("am.rows_read_per_result", Ratio(c.am_rows, results), "ratio");
    m.Set("am.index_probes_per_query", Ratio(c.index_probes, q), "count");
    m.Set("sm.pass_ratio", Ratio(c.sm_out, c.sm_in), "ratio");
    m.Set("runtime.allocs_per_routed", Ratio(c.allocs, routed), "count");
    m.Set("runtime.alloc_bytes_per_result", Ratio(c.alloc_bytes, results),
          "B");
    m.Set("spill.ios_per_query", Ratio(c.spill_ios, q), "count");
    m.Set("spill.bytes_per_query", Ratio(c.spill_bytes, q), "B");
    m.Set("spill.pool_hit_ratio",
          Ratio(c.pool_hits, c.pool_hits + c.pool_misses), "ratio");
    m.Set("spill.pool_evictions_per_query", Ratio(c.pool_evictions, q),
          "count");
    m.Set("spill.partitions_spilled", Ratio(c.partitions_spilled, q),
          "count");
    m.Set("exec.morsels_per_query", Ratio(c.morsels, q), "count");
    m.Set("exec.worker_busy_share",
          Ratio(wall_.worker_busy_ms, wall_.worker_capacity_ms), "ratio");
    m.Set("exec.worker_skew",
          Ratio(wall_.skew_sum, static_cast<double>(wall_.skew_queries)),
          "ratio");
    m.Set("exec.shard_lock_waits_per_query", Ratio(c.lock_waits, q),
          "count");
    m.Set("exec.shard_lock_wait_share",
          Ratio(wall_.lock_wait_ms, wall_.worker_capacity_ms), "ratio");
    m.Set("obs.trace_overhead",
          Ratio(Median(traced_latency_ms_), Median(latency_ms_)), "ratio");
    out_->layer_table = FinishLayerTable(args_.workload, out_->spans, &m);
  }

  const RunArgs& args_;
  RunResult* out_;
  RunOptions options_;
  Statement stmt_;
  Rng draws_;
  Dataset data_;
  std::unique_ptr<stems::Engine> engine_;
  std::optional<stems::PreparedQuery> prepared_;
  Reference reference_;

  std::vector<double> setup_batch_s_, prepare_us_;
  std::vector<double> latency_ms_, first_row_ms_;
  std::vector<double> traced_latency_ms_;
  std::vector<double> bind_us_, submit_us_, cursor_ms_;
  double measured_ms_ = 0;
  uint64_t measured_rows_ = 0;
  uint64_t traced_routed_ = 0;
  HostClock clock_;
  double clock_ns_ = 0;  ///< the last clock reading (untraced run)
  std::vector<double> clock_factors_;
  double rss_after_warmup_mb_ = 0;
  /// Read as the measured phase ends, before the report's own buffers.
  double rss_growth_mb_ = 0;
  uint64_t next_query_id_ = 1;
  size_t measured_queries_ = 0;
  Counts counts_;
  WallSums wall_;
  std::vector<stems::RowView> rows_;  ///< reused result buffer
  bool rotate_queries_;
  CpuRotor rotor_;
};

}  // namespace

void RunInProcess(const RunArgs& args, RunResult* out) {
  InProcessRun(args, out).Run();
}

}  // namespace perfbench
