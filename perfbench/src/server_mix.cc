// server_mix: a loopback stems::server::Server over a MultiQuery engine
// (shared SteMs, §5) serving two tenants, driven closed-loop.
//
// Four generator threads, one connection each (two per tenant), each send
// one request at a time: Bind -> Submit -> Fetch to the end, as
// Client::RunQuery does, then check the rows against the reference. A
// request is timed from the Bind call until its last row.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stems::server::Client;
using stems::server::Server;
using stems::server::ServerOptions;

constexpr size_t kConnections = 4;
const char* const kTenants[] = {"alpha", "beta"};
/// Requests per connection run (and checked) before the measured phase.
constexpr size_t kWarmupRequests = 50;
/// The measured phase is cut into segments of about this length. After
/// each, with every connection idle, the untraced run reads the host clock
/// and scales the segment's timings by the readings at both ends
/// (HostClock); after every kSegmentsPerSetupBatch-th it also times a batch
/// of server set-ups; setup_s is the mean of the batches' medians
/// (SetupSeconds).
constexpr double kSegmentSeconds = 0.25;
constexpr size_t kSegmentsPerSetupBatch = 4;
constexpr size_t kSetupsPerBatch = 3;
/// Each connection reconnects after this many requests. The server keeps
/// every portal a session binds until the session closes (about 1 KB a
/// request), so without a session lifetime peak_rss_mb would grow with the
/// number of requests the host managed to run. Closing the session drops
/// the portals; the last session's share stays in peak_rss_mb.
constexpr size_t kSessionRequests = 1000;
/// Traced run: each connection alternates traced and untraced blocks of
/// this many requests, so obs.trace_overhead compares neighbours in time.
constexpr size_t kTraceBlock = 16;

ServerOptions MakeServerOptions() {
  ServerOptions o;
  o.run_options = stems::RunOptions::MultiQuery();
  for (const char* t : kTenants) {
    stems::server::TenantConfig cfg;
    cfg.name = t;
    o.tenants.push_back(cfg);
  }
  return o;
}

/// One engine, the server over it, and the generator's connections.
struct Instance {
  std::unique_ptr<stems::Engine> engine;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::vector<uint32_t>> stmt_ids;  ///< [connection][statement]

  /// Closes the connections and stops the server (joins its threads).
  void Stop() {
    for (auto& c : clients) c->Close().IgnoreError();
    server->Shutdown();
  }
};

/// Everything one request saw, on its generator thread's clock.
struct Sample {
  double latency_ms = 0;    ///< Bind call -> last row
  double first_row_ms = 0;  ///< Bind call -> first row
  double bind_us = 0;
  double submit_us = 0;
  double fetch_loop_ms = 0;
  double fetch_us = 0;  ///< summed Fetch round trips
  size_t rows = 0;
  size_t fetches = 0;
  size_t empty_fetches = 0;
  bool traced = false;
  bool ok = true;
};

/// One connection's generator: its seeded draws and what it measured. The
/// untraced run keeps two numbers a request, so the samples' own memory
/// stays a small, steady share of peak_rss_mb.
struct Generator {
  Rng draws{0};
  size_t sent = 0;  ///< requests sent so far (also the traced-block clock)
  size_t session_requests = 0;  ///< requests on the current connection
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  std::vector<double> latency_ms, first_row_ms;
  std::vector<Sample> samples;  ///< every measured request, traced run only
  SpanRecorder spans;
};

/// Counters the server publishes, read around the traced phase.
struct ServerCounters {
  stems::server::TenantRollup tenants;  ///< summed over both tenants
  uint64_t engine_ticks = 0;
  uint64_t builds = 0;
  uint64_t probes = 0;
  uint64_t matches = 0;
  AllocCounts allocs;
};

class ServerMixRun {
 public:
  ServerMixRun(const RunArgs& args, RunResult* out)
      : args_(args), out_(out), stmts_(ServerStatements()),
        gens_(kConnections) {}

  void Run() {
    Setup();
    main_ = StartInstance(args_.trace ? &out_->spans : nullptr, nullptr);
    Connect(main_.get());
    // Warm-up: one connection at a time, checked, not measured.
    double warmup_ms = 0;
    for (size_t c = 0; c < kConnections; ++c) {
      for (size_t i = 0; i < kWarmupRequests; ++i) {
        const Sample s = OneRequest(c, false);
        warmup_ms += s.latency_ms;
        ++out_->attempted;
        if (!s.ok) ++out_->failed;
      }
    }

    ServerCounters before;
    if (args_.trace) {
      // The engine thread serves the connections in turn, so under the
      // closed loop each one runs at about 1/kConnections of the
      // one-at-a-time warm-up's pace.
      const size_t bound =
          QueryBound(args_.seconds, warmup_ms / kWarmupRequests);
      for (Generator& g : gens_) {
        Pretouch(&g.latency_ms, bound);
        Pretouch(&g.first_row_ms, bound);
        Pretouch(&g.samples, bound);
        // Four spans per traced request (one fetch); half are traced.
        g.spans.Preallocate(2 * bound);
      }
      rss_after_warmup_mb_ = RssMb();
      before = ReadCounters();
      SetAllocCounting(true);
    }
    if (!args_.trace) clock_ns_ = clock_.NsPerStep();
    const size_t segments = std::max<size_t>(
        2, static_cast<size_t>(std::lround(args_.seconds / kSegmentSeconds)));
    for (size_t segment = 1; segment <= segments; ++segment) {
      std::vector<size_t> first;
      for (const Generator& g : gens_) first.push_back(g.latency_ms.size());
      const double seconds =
          RunSegment(args_.seconds / static_cast<double>(segments));
      if (args_.trace) continue;
      const double ns = clock_.NsPerStep();
      const double factor = HostClock::Factor((clock_ns_ + ns) / 2);
      clock_ns_ = ns;
      for (size_t c = 0; c < kConnections; ++c) {
        Generator& g = gens_[c];
        for (size_t i = first[c]; i < g.latency_ms.size(); ++i) {
          g.latency_ms[i] *= factor;
          g.first_row_ms[i] *= factor;
        }
      }
      measured_s_ += seconds * factor;
      clock_factors_.push_back(factor);
      if (segment % kSegmentsPerSetupBatch == 0) SetupBatch();
    }
    if (spare_stopper_.joinable()) spare_stopper_.join();
    for (const Generator& g : gens_) {
      out_->attempted += g.attempted;
      out_->failed += g.failed;
    }
    if (out_->failed > 0) out_->correct = false;
    if (args_.trace) {
      SetAllocCounting(false);
      rss_growth_mb_ = RssMb() - rss_after_warmup_mb_;
      const ServerCounters after = ReadCounters();
      main_->Stop();
      ReportLayers(before, after);
    } else {
      main_->Stop();
      ReportEndToEnd();
    }
  }

 private:
  void Setup() {
    data_ = MakeDataset(Sizes{80, 80, 40, 30, 20});
    {
      // The reference reads a private engine over the same data: a serving
      // engine belongs to its server's engine thread once started.
      stems::Engine ref_engine;
      LoadTables(data_, &ref_engine);
      reference_.Compute(&ref_engine, stmts_);
    }
    for (size_t c = 0; c < kConnections; ++c) {
      gens_[c].draws = Rng(args_.seed * kConnections + c);
    }
  }

  /// Engine start + table load + Server::Start, taking `*seconds` when
  /// given.
  std::unique_ptr<Instance> StartInstance(SpanRecorder* spans,
                                          double* seconds) {
    auto inst = std::make_unique<Instance>();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan setup_span(spans, "setup", 0);
      inst->engine = std::make_unique<stems::Engine>();
      {
        ScopedSpan span(spans, "engine.load", 0);
        LoadTables(data_, inst->engine.get());
      }
      inst->server =
          std::make_unique<Server>(inst->engine.get(), MakeServerOptions());
      ScopedSpan span(spans, "server.start", 0);
      const stems::Status st = inst->server->Start();
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: Server::Start: %s\n",
                     st.ToString().c_str());
        std::exit(1);
      }
    }
    if (seconds != nullptr) *seconds = MsBetween(t0, Clock::now()) / 1e3;
    return inst;
  }

  /// Times a batch of server set-ups between segments, at the clock last
  /// read. The spares are
  /// stopped on a helper thread: an idle server's engine loop parks for up
  /// to 250 ms before it sees the shutdown request, and that wait must not
  /// eat into the measured segments.
  void SetupBatch() {
    if (spare_stopper_.joinable()) spare_stopper_.join();
    std::vector<std::unique_ptr<Instance>> spares;
    std::vector<double> batch(kSetupsPerBatch);
    for (double& seconds : batch) {
      spares.push_back(StartInstance(nullptr, &seconds));
    }
    setup_batch_s_.push_back(Median(batch) * HostClock::Factor(clock_ns_));
    spare_stopper_ = std::thread([spares = std::move(spares)] {
      for (const auto& spare : spares) spare->Stop();
    });
  }

  void Connect(Instance* inst) {
    inst->clients.resize(kConnections);
    inst->stmt_ids.resize(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      OpenSession(inst, c, &prepare_us_);
    }
  }

  /// Connects (or reconnects) connection `conn` as its tenant and prepares
  /// every statement; Prepare round trips go to `prepare_us` when given.
  void OpenSession(Instance* inst, size_t conn,
                   std::vector<double>* prepare_us) {
    if (inst->clients[conn] != nullptr) {
      inst->clients[conn]->Close().IgnoreError();
    }
    auto client = std::make_unique<Client>();
    const stems::Status st = client->Connect(
        "127.0.0.1", inst->server->port(), kTenants[conn * 2 / kConnections]);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: Connect: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    inst->stmt_ids[conn].clear();
    for (const Statement& stmt : stmts_) {
      const Clock::time_point t0 = Clock::now();
      auto prepared = client->Prepare(stmt.sql);
      if (prepare_us != nullptr) {
        prepare_us->push_back(UsBetween(t0, Clock::now()));
      }
      if (!prepared.ok()) {
        std::fprintf(stderr, "perfbench: Prepare %s: %s\n", stmt.name.c_str(),
                     prepared.status().ToString().c_str());
        std::exit(1);
      }
      inst->stmt_ids[conn].push_back(prepared.Value().stmt_id);
    }
    inst->clients[conn] = std::move(client);
    gens_[conn].session_requests = 0;
  }

  ServerCounters ReadCounters() {
    ServerCounters c;
    for (const char* t : kTenants) {
      const stems::server::TenantRollup r = main_->server->TenantStats(t);
      c.tenants.queries_submitted += r.queries_submitted;
      c.tenants.queries_queued += r.queries_queued;
      c.tenants.queries_rejected += r.queries_rejected;
      c.tenants.queries_completed += r.queries_completed;
      c.tenants.tuples_routed += r.tuples_routed;
      c.tenants.builds_avoided += r.builds_avoided;
    }
    c.engine_ticks = main_->server->engine_ticks();
    stems::obs::MetricsRegistry& reg = main_->engine->metrics_registry();
    c.builds = reg.GetCounter("stem.builds")->value();
    c.probes = reg.GetCounter("stem.probes")->value();
    c.matches = reg.GetCounter("stem.matches")->value();
    c.allocs = ReadAllocCounts();
    return c;
  }

  /// One request on connection `conn`: Bind -> Submit -> Fetch to the end,
  /// then the row check.
  Sample OneRequest(size_t conn, bool traced) {
    Generator& g = gens_[conn];
    SpanRecorder* spans = traced ? &g.spans : nullptr;
    Client* client = main_->clients[conn].get();
    Sample s;
    s.traced = traced;
    QueryDraw draw;
    draw.stmt = static_cast<size_t>(
        g.draws.Uniform(static_cast<int64_t>(stmts_.size())));
    draw.point = static_cast<size_t>(
        g.draws.Uniform(static_cast<int64_t>(stmts_[draw.stmt].grid.size())));
    const Statement& stmt = stmts_[draw.stmt];
    const uint64_t qid = (g.sent++) * kConnections + conn + 1;
    std::vector<std::string> keys;
    std::string error;
    const Clock::time_point start = Clock::now();
    Clock::time_point first = start, end = start, fetch_start = start;
    {
      ScopedSpan query_span(spans, "query", qid);
      auto portal = [&] {
        ScopedSpan span(spans, "sql.bind", qid);
        return client->Bind(main_->stmt_ids[conn][draw.stmt],
                            stmt.Params(draw.point));
      }();
      Clock::time_point t = Clock::now();
      s.bind_us = UsBetween(start, t);
      if (portal.ok()) {
        auto submit = [&] {
          ScopedSpan span(spans, "engine.submit", qid);
          return client->Submit(portal.Value());
        }();
        fetch_start = Clock::now();
        s.submit_us = UsBetween(t, fetch_start);
        if (!submit.ok()) error = submit.status().ToString();
        // Fetch to the end, as Client::RunQuery does: an empty, not-done
        // batch means the submit is queued behind its tenant's quota.
        while (error.empty()) {
          const Clock::time_point f0 = Clock::now();
          auto fetch = [&] {
            ScopedSpan span(spans, "server.fetch", qid);
            return client->Fetch(submit.Value().query_id);
          }();
          const Clock::time_point f1 = Clock::now();
          ++s.fetches;
          s.fetch_us += UsBetween(f0, f1);
          if (!fetch.ok()) {
            error = fetch.status().ToString();
            break;
          }
          const auto& rows = fetch.Value().rows;
          if (!rows.empty() && s.rows == 0) first = f1;
          for (const auto& row : rows) {
            keys.push_back(WireRowKey(row, stmt.slot_widths));
          }
          s.rows += rows.size();
          if (fetch.Value().done) break;
          if (rows.empty()) {
            ++s.empty_fetches;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      } else {
        error = portal.status().ToString();
      }
      end = Clock::now();
    }
    if (s.rows == 0) first = end;
    s.latency_ms = MsBetween(start, end);
    s.first_row_ms = MsBetween(start, first);
    s.fetch_loop_ms = MsBetween(fetch_start, end);
    if (error.empty() && !reference_.Check(draw, std::move(keys))) {
      error = "rows differ from the reference result set (" +
              std::to_string(s.rows) + " rows, expected " +
              std::to_string(reference_.Expected(draw).size()) + ")";
    }
    if (!error.empty()) {
      s.ok = false;
      std::fprintf(stderr, "perfbench: request %llu (%s point %zu): %s\n",
                   static_cast<unsigned long long>(qid), stmt.name.c_str(),
                   draw.point, error.c_str());
    }
    return s;
  }

  /// All connections run closed-loop for `seconds`; returns the segment's
  /// wall time in seconds (rows_per_s counts it).
  double RunSegment(double seconds) {
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([this, c, deadline] {
        Generator& g = gens_[c];
        while (Clock::now() < deadline) {
          const bool traced =
              args_.trace && (g.sent / kTraceBlock) % 2 == 0;
          const Sample s = OneRequest(c, traced);
          ++g.attempted;
          if (!s.ok) ++g.failed;
          g.rows += s.rows;
          g.latency_ms.push_back(s.latency_ms);
          g.first_row_ms.push_back(s.first_row_ms);
          if (args_.trace) g.samples.push_back(s);
          if (++g.session_requests == kSessionRequests) {
            OpenSession(main_.get(), c, nullptr);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return MsBetween(t0, Clock::now()) / 1e3;
  }

  void ReportEndToEnd() {
    std::vector<double> lat, first_row;
    double rows = 0;
    for (const Generator& g : gens_) {
      lat.insert(lat.end(), g.latency_ms.begin(), g.latency_ms.end());
      first_row.insert(first_row.end(), g.first_row_ms.begin(),
                       g.first_row_ms.end());
      rows += static_cast<double>(g.rows);
    }
    RequireTailSamples("latency_ms.p90", lat.size(), 0.90);
    Metrics& m = out_->metrics;
    m.Set("setup_s", SetupSeconds(setup_batch_s_), "s");
    m.Set("latency_ms.p50", Quantile(lat, 0.50), "ms");
    m.Set("latency_ms.p90", Quantile(lat, 0.90), "ms");
    m.Set("first_row_ms.p50", Median(first_row), "ms");
    m.Set("rows_per_s", Ratio(rows, measured_s_), "1/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MiB");
    out_->clock_factor = Median(clock_factors_);
  }

  void ReportLayers(const ServerCounters& before,
                    const ServerCounters& after) {
    Metrics& m = out_->metrics;
    std::vector<double> traced_lat, plain_lat, bind, submit, fetch_loop,
        fetch_rtt;
    double fetches = 0, empty = 0, rows = 0, n = 0;
    for (const Generator& g : gens_) {
      for (const Sample& s : g.samples) {
        (s.traced ? traced_lat : plain_lat).push_back(s.latency_ms);
        bind.push_back(s.bind_us);
        submit.push_back(s.submit_us);
        fetch_loop.push_back(s.fetch_loop_ms);
        fetch_rtt.push_back(s.fetch_us / static_cast<double>(s.fetches));
        fetches += static_cast<double>(s.fetches);
        empty += static_cast<double>(s.empty_fetches);
        rows += static_cast<double>(s.rows);
        ++n;
      }
      out_->spans.Append(g.spans);
    }
    const stems::server::TenantRollup& a = after.tenants;
    const stems::server::TenantRollup& b = before.tenants;
    const double completed =
        static_cast<double>(a.queries_completed - b.queries_completed);
    const double submitted =
        static_cast<double>(a.queries_submitted - b.queries_submitted);
    const double routed =
        static_cast<double>(a.tuples_routed - b.tuples_routed);
    const double builds = static_cast<double>(after.builds - before.builds);
    const double probes = static_cast<double>(after.probes - before.probes);
    stems::obs::MetricsRegistry& reg = main_->engine->metrics_registry();
    const stems::obs::Histogram* fetch_hist =
        reg.GetHistogram("server.fetch_us");
    // The engine thread has joined: its clock and totals are safe to read.
    const double all_completed = static_cast<double>(a.queries_completed);
    const double events =
        static_cast<double>(main_->engine->sim().events_processed());

    m.Set("error_rate", Ratio(static_cast<double>(out_->failed),
                              static_cast<double>(out_->attempted)),
          "ratio");
    m.Set("sql.prepare_us.p50", Median(prepare_us_), "us");
    m.Set("sql.bind_us.p50", Median(bind), "us");
    m.Set("engine.submit_us.p50", Median(submit), "us");
    m.Set("engine.cursor_ms.p50", Median(fetch_loop), "ms");
    m.Set("engine.rss_growth_mb", rss_growth_mb_, "MiB");
    m.Set("sim.events_per_query", Ratio(events, all_completed), "count");
    m.Set("sim.events_per_routed",
          Ratio(events, static_cast<double>(a.tuples_routed)), "count");
    m.Set("eddy.routed_per_query", Ratio(routed, completed), "count");
    m.Set("stem.builds_per_query", Ratio(builds, completed), "count");
    m.Set("stem.probes_per_query", Ratio(probes, completed), "count");
    m.Set("stem.matches_per_probe",
          Ratio(static_cast<double>(after.matches - before.matches), probes),
          "ratio");
    m.Set("stem.builds_avoided_ratio",
          Ratio(static_cast<double>(a.builds_avoided - b.builds_avoided),
                builds),
          "ratio");
    m.Set("runtime.allocs_per_routed",
          Ratio(static_cast<double>(after.allocs.allocs - before.allocs.allocs),
                routed),
          "count");
    m.Set("runtime.alloc_bytes_per_result",
          Ratio(static_cast<double>(after.allocs.bytes - before.allocs.bytes),
                rows),
          "B");
    const double fetch_p50 = fetch_hist->Percentile(0.50);
    m.Set("server.fetch_us.p50", fetch_p50, "us");
    m.Set("server.fetch_us.p99", fetch_hist->Percentile(0.99), "us");
    m.Set("server.outside_fetch_us.p50", Median(fetch_rtt) - fetch_p50, "us");
    m.Set("server.fetches_per_query", Ratio(fetches, n), "count");
    m.Set("server.empty_fetch_frac", Ratio(empty, fetches), "ratio");
    m.Set("server.queue_high_water",
          static_cast<double>(
              reg.GetGauge("server.request_queue_high_water")->value()),
          "count");
    m.Set("server.queued_frac",
          Ratio(static_cast<double>(a.queries_queued - b.queries_queued),
                submitted),
          "ratio");
    m.Set("server.rejected_frac",
          Ratio(static_cast<double>(a.queries_rejected - b.queries_rejected),
                submitted),
          "ratio");
    m.Set("server.engine_ticks_per_query",
          Ratio(static_cast<double>(after.engine_ticks - before.engine_ticks),
                completed),
          "count");
    m.Set("obs.trace_overhead", Ratio(Median(traced_lat), Median(plain_lat)),
          "ratio");
    out_->layer_table = FinishLayerTable(args_.workload, out_->spans, &m);
  }

  const RunArgs& args_;
  RunResult* out_;
  std::vector<Statement> stmts_;
  std::vector<Generator> gens_;
  Dataset data_;
  Reference reference_;
  std::unique_ptr<Instance> main_;  ///< serves warm-up and every segment
  std::thread spare_stopper_;       ///< stops the last batch's spares
  std::vector<double> setup_batch_s_, prepare_us_;
  HostClock clock_;
  double clock_ns_ = 0;  ///< the last clock reading (untraced run)
  std::vector<double> clock_factors_;
  double measured_s_ = 0;
  double rss_after_warmup_mb_ = 0;
  /// Read as the measured phase ends, before the report's own buffers.
  double rss_growth_mb_ = 0;
};

}  // namespace

void RunServerMix(const RunArgs& args, RunResult* out) {
  ServerMixRun(args, out).Run();
}

}  // namespace perfbench
