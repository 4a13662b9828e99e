// Sim-vs-threaded equivalence gate (the CI wall for docs/parallelism.md).
//
// The deterministic simulated-clock executor is the reference semantics;
// the wall-clock morsel-driven executor must reproduce its result set
// exactly. This suite pins that across the whole supported matrix — every
// registered routing policy (the two registered below included) × batch
// size {8, 64} × threads {1, 2, 4} — with the brute-force evaluator as the
// independent anchor, and requires both substrates to finish with clean
// audit verdicts (zero violations). It also covers the LargerThanMemory
// spill preset, exact LIMIT clamping under concurrent admission, the
// Engine/SQL integration, probe_order under threads, and the
// unsupported-combination errors.
#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eddy/policies/nary_shj_policy.h"
#include "eddy/policies/policy_base.h"
#include "engine/engine.h"
#include "engine/policy_registry.h"
#include "exec/sim_executor.h"
#include "exec/threaded_executor.h"
#include "tests/test_util.h"

namespace stems {
namespace {

using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;
using testing::TestDb;

constexpr size_t kBatchSizes[] = {8, 64};
constexpr size_t kThreadCounts[] = {1, 2, 4};

/// Times any LastCandidatePolicy instance chose a probe slot.
std::atomic<uint64_t> g_last_candidate_calls{0};

/// A custom PolicyBase subclass: probes the highest candidate slot (the
/// opposite of nary_shj's default), reading only its arguments.
class LastCandidatePolicy : public PolicyBase {
 public:
  const char* name() const override { return "test-last-candidate"; }
  int ChooseProbeSlot(const Tuple& /*tuple*/,
                      const std::vector<int>& candidates,
                      const ProbeStats& /*stats*/) override {
    g_last_candidate_calls.fetch_add(1, std::memory_order_relaxed);
    return candidates.back();
  }
};

STEMS_REGISTER_POLICY("test_last_candidate", [](const PolicyParams&) {
  return std::make_unique<LastCandidatePolicy>();
});

/// A policy that implements only RoutingPolicy::Route (by delegating to
/// nary_shj), so it runs on the sim and is refused by the threaded
/// executor, whose workers consult PolicyBase::ChooseProbeSlot.
class RouteOnlyPolicy : public RoutingPolicy {
 public:
  const char* name() const override { return "test-route-only"; }
  void Attach(Eddy* eddy) override {
    RoutingPolicy::Attach(eddy);
    inner_.Attach(eddy);
  }
  RouteDecision Route(const TuplePtr& tuple) override {
    return inner_.Route(tuple);
  }

 private:
  NaryShjPolicy inner_;
};

STEMS_REGISTER_POLICY("test_route_only", [](const PolicyParams&) {
  return std::make_unique<RouteOnlyPolicy>();
});

/// Whether the threaded executor runs `policy` (a PolicyBase) rather than
/// refusing it with kUnsupported.
bool RunsThreaded(const std::string& policy) {
  auto created = PolicyRegistry::Global().Create(policy);
  if (!created.ok()) return false;
  const std::unique_ptr<RoutingPolicy> instance =
      std::move(created).ValueOrDie();
  return dynamic_cast<const PolicyBase*>(instance.get()) != nullptr;
}

/// Deterministic row generator (tests must not depend on ambient RNG).
std::vector<RowRef> RandomIntRows(uint64_t seed, size_t n, size_t cols,
                                  int64_t domain) {
  std::vector<std::vector<int64_t>> data(n, std::vector<int64_t>(cols));
  uint64_t x = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& row : data) {
    for (auto& v : row) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<int64_t>((x >> 33) % static_cast<uint64_t>(domain));
    }
  }
  return IntRows(data);
}

struct RunSummary {
  Status status;
  std::set<std::string> keys;
  std::vector<std::string> duplicates;
  std::vector<std::string> violations;
  ExecOutcome outcome;
};

RunSummary RunSim(const QuerySpec& query, const TestDb& db,
                  const std::string& policy, size_t batch_size) {
  RunOptions options;
  options.policy = policy;
  options.batch_size = batch_size;
  options.exec.scan_defaults.period = Micros(10);
  SimExecutor executor;
  RunSummary run;
  Status st = executor.Execute(query, options, db.store, &run.outcome);
  EXPECT_TRUE(st.ok()) << st.ToString();
  run.keys = KeysOf(run.outcome.results, &run.duplicates);
  run.violations = run.outcome.violations;
  return run;
}

RunSummary RunThreaded(const QuerySpec& query, const TestDb& db,
                       const std::string& policy, size_t batch_size,
                       size_t threads, RunOptions options = {}) {
  options.policy = policy;
  options.batch_size = batch_size;
  options.executor = ExecutorKind::kThreaded;
  options.num_threads = threads;
  ThreadPoolExecutor executor;
  RunSummary run;
  run.status = executor.Execute(query, options, db.store, &run.outcome);
  const StatusCode want =
      RunsThreaded(policy) ? StatusCode::kOk : StatusCode::kUnsupported;
  EXPECT_EQ(run.status.code(), want) << run.status.ToString();
  run.keys = KeysOf(run.outcome.results, &run.duplicates);
  run.violations = run.outcome.violations;
  return run;
}

/// The gate itself: one sim reference run per policy, then the threaded
/// matrix must match it key-for-key with clean audits on both sides.
void ExpectEquivalence(const QuerySpec& query, const TestDb& db,
                       RunOptions threaded_base = {}) {
  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    SCOPED_TRACE("policy=" + policy);
    const RunSummary sim = RunSim(query, db, policy, 8);
    EXPECT_EQ(sim.keys, expected) << "sim run diverges from brute force";
    EXPECT_TRUE(sim.duplicates.empty());
    EXPECT_TRUE(sim.violations.empty());
    for (size_t batch : kBatchSizes) {
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        const RunSummary threaded =
            RunThreaded(query, db, policy, batch, threads, threaded_base);
        if (!threaded.status.ok()) continue;  // checked by RunThreaded
        EXPECT_EQ(threaded.keys, sim.keys);
        EXPECT_TRUE(threaded.duplicates.empty())
            << threaded.duplicates.size() << " duplicates, first: "
            << threaded.duplicates.front();
        // "Identical audit verdicts": both executors must report the same
        // (empty) violation list.
        EXPECT_EQ(threaded.violations, sim.violations);
        EXPECT_TRUE(threaded.violations.empty());
      }
    }
  }
}

TestDb TwoTableDb() {
  TestDb db;
  // Duplicate rows included on purpose: the §3.2 set-semantics dedup must
  // behave identically under concurrent builds.
  auto r = RandomIntRows(1, 40, 2, 8);
  r.push_back(r.front());
  r.push_back(r.front());
  db.AddTable("R", IntSchema({"a", "b"}), std::move(r), {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(2, 40, 2, 8),
              {ScanSpec("S.scan")});
  return db;
}

TEST(ThreadedEquivalence, EquiJoin2) {
  TestDb db = TwoTableDb();
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, Chain3WithSelection) {
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(3, 30, 2, 6),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(4, 30, 2, 6),
              {ScanSpec("S.scan")});
  db.AddTable("T", IntSchema({"u", "v"}), RandomIntRows(5, 30, 2, 6),
              {ScanSpec("T.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
  qb.AddSelection("R.b", CompareOp::kLt, Value::Int64(4));
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, Star4) {
  TestDb db;
  db.AddTable("A", IntSchema({"a", "b", "c"}), RandomIntRows(6, 24, 3, 5),
              {ScanSpec("A.scan")});
  db.AddTable("B", IntSchema({"x"}), RandomIntRows(7, 20, 1, 5),
              {ScanSpec("B.scan")});
  db.AddTable("C", IntSchema({"x"}), RandomIntRows(8, 20, 1, 5),
              {ScanSpec("C.scan")});
  db.AddTable("D", IntSchema({"x"}), RandomIntRows(9, 20, 1, 5),
              {ScanSpec("D.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("A").AddTable("B").AddTable("C").AddTable("D");
  qb.AddJoin("A.a", "B.x").AddJoin("A.b", "C.x").AddJoin("A.c", "D.x");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, RangeJoin) {
  // Non-equality join: no hash bindings, so threaded probes take the
  // all-shard scan path.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), RandomIntRows(10, 18, 1, 12),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), RandomIntRows(11, 18, 1, 12),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x", CompareOp::kLt);
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, CrossProduct) {
  // Join-graph fallback: no predicates at all, every unspanned slot is a
  // probe candidate.
  TestDb db;
  db.AddTable("R", IntSchema({"a"}), RandomIntRows(12, 8, 1, 100),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x"}), RandomIntRows(13, 6, 1, 100),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S");
  ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
}

TEST(ThreadedEquivalence, LargerThanMemorySpillPreset) {
  // The spill preset case the ISSUE calls out: a budget far below the
  // build state forces the threaded executor's spill-lite path (shard
  // index drops + probe fault-ins) — results must stay exact.
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(14, 60, 2, 10),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(15, 60, 2, 10),
              {ScanSpec("S.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();

  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  for (const std::string& policy : PolicyRegistry::Global().Names()) {
    SCOPED_TRACE("policy=" + policy);
    for (size_t batch : kBatchSizes) {
      for (size_t threads : kThreadCounts) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        const RunSummary run = RunThreaded(query, db, policy, batch, threads,
                                           RunOptions::LargerThanMemory(32));
        if (!run.status.ok()) continue;  // checked by RunThreaded
        EXPECT_EQ(run.keys, expected);
        EXPECT_TRUE(run.duplicates.empty());
        EXPECT_TRUE(run.violations.empty());
        EXPECT_GT(run.outcome.spill_ios, 0u)
            << "budget 32 over ~120 entries must spill";
        EXPECT_GT(run.outcome.entries_spilled + run.outcome.spill_ios, 0u);
      }
    }
  }
}

TEST(ThreadedEquivalence, LimitClampIsExactUnderConcurrency) {
  TestDb db = TwoTableDb();
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec unlimited = std::move(qb).Build().ValueOrDie();
  const size_t total = BruteForceResultSet(unlimited, db.store).size();
  ASSERT_GT(total, 10u);

  QueryBuilder qb2(db.catalog);
  qb2.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  qb2.Limit(7);
  const QuerySpec limited = std::move(qb2).Build().ValueOrDie();
  for (size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const RunSummary run = RunThreaded(limited, db, "nary_shj", 8, threads);
    EXPECT_EQ(run.outcome.results.size(), 7u);
    EXPECT_TRUE(run.outcome.limit_reached);
    EXPECT_TRUE(run.violations.empty());
  }
  // LIMIT 0 completes without touching a single morsel.
  QueryBuilder qb3(db.catalog);
  qb3.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  qb3.Limit(0);
  const RunSummary zero =
      RunThreaded(std::move(qb3).Build().ValueOrDie(), db, "nary_shj", 8, 2);
  EXPECT_TRUE(zero.outcome.results.empty());
  EXPECT_EQ(zero.outcome.totals.morsels, 0u);
}

TEST(ThreadedEquivalence, EngineSubmitAndStats) {
  Engine engine;
  TableDef r;
  r.name = "R";
  r.schema = IntSchema({"a", "b"});
  r.access_methods = {ScanSpec("R.scan")};
  ASSERT_TRUE(engine.AddTable(r, RandomIntRows(20, 40, 2, 8)).ok());
  TableDef s;
  s.name = "S";
  s.schema = IntSchema({"x", "y"});
  s.access_methods = {ScanSpec("S.scan")};
  ASSERT_TRUE(engine.AddTable(s, RandomIntRows(21, 40, 2, 8)).ok());

  QueryBuilder qb(engine.catalog());
  qb.AddTable("R").AddTable("S").AddJoin("R.a", "S.x");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  const std::set<std::string> expected =
      BruteForceResultSet(query, engine.store());

  auto submitted = engine.Submit(query, RunOptions::Threaded(2));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  QueryHandle handle = std::move(submitted).ValueOrDie();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.eddy(), nullptr);

  std::vector<std::string> duplicates;
  EXPECT_EQ(KeysOf(handle.cursor().Drain(), &duplicates), expected);
  EXPECT_TRUE(duplicates.empty());

  const QueryStats stats = handle.Stats();
  EXPECT_EQ(stats.executor, "threaded");
  EXPECT_EQ(stats.num_results, expected.size());
  EXPECT_EQ(stats.constraint_violations, 0u);
  EXPECT_EQ(stats.worker_counters.size(), 2u);
  uint64_t worker_results = 0;
  uint64_t worker_routed = 0;
  for (const WorkerCounters& wc : stats.worker_counters) {
    worker_results += wc.results;
    worker_routed += wc.tuples_routed;
  }
  EXPECT_EQ(worker_results, stats.num_results);
  EXPECT_EQ(worker_routed, stats.tuples_routed);
  EXPECT_GT(stats.tuples_routed, 0u);

  // SQL front end through the same dispatch, with a LIMIT.
  auto sql = engine.Query(
      "SELECT R.a, S.y FROM R, S WHERE R.a = S.x LIMIT 5",
      RunOptions::Threaded(2));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(std::move(sql).ValueOrDie().cursor().Drain().size(), 5u);
}

TEST(ThreadedEquivalence, UnsupportedCombinationsAreTypedErrors) {
  Engine engine;
  TableDef scan_table;
  scan_table.name = "R";
  scan_table.schema = IntSchema({"a"});
  scan_table.access_methods = {ScanSpec("R.scan")};
  ASSERT_TRUE(engine.AddTable(scan_table, IntRows({{1}, {2}})).ok());
  TableDef index_only;
  index_only.name = "I";
  index_only.schema = IntSchema({"x"});
  index_only.access_methods = {testing::IndexSpec("I.idx", {0})};
  ASSERT_TRUE(engine.AddTable(index_only, IntRows({{1}, {2}})).ok());

  // share_stems is rejected by option validation alone.
  {
    RunOptions o = RunOptions::Threaded(2);
    o.share_stems = true;
    EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  }
  // An evicting (non-spill) memory budget is sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::Threaded(2);
    o.memory_budget_entries = 16;
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Index-only tables need probe bouncing — sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R").AddTable("I").AddJoin("R.a", "I.x");
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(),
                           RunOptions::Threaded(2));
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Self-joins (retarget clones) are sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R", "r1").AddTable("R", "r2").AddJoin("r1.a", "r2.a");
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(),
                           RunOptions::Threaded(2));
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // Relaxed BuildFirst is sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::RelaxedBuildFirst({"R"});
    o.executor = ExecutorKind::kThreaded;
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
  // A policy that is not a PolicyBase has no ChooseProbeSlot for the
  // workers to consult — sim-only.
  {
    QueryBuilder qb(engine.catalog());
    qb.AddTable("R");
    RunOptions o = RunOptions::Threaded(2);
    o.policy = "test_route_only";
    auto r = engine.Submit(std::move(qb).Build().ValueOrDie(), o);
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
  }
}

TEST(ThreadedEquivalence, CustomPolicyBaseRunsOnWorkers) {
  TestDb db;
  db.AddTable("R", IntSchema({"a", "b"}), RandomIntRows(30, 30, 2, 6),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), RandomIntRows(31, 30, 2, 6),
              {ScanSpec("S.scan")});
  db.AddTable("T", IntSchema({"u"}), RandomIntRows(32, 30, 1, 6),
              {ScanSpec("T.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();

  RunOptions options = RunOptions::Threaded(2);
  options.policy = "test_last_candidate";
  const uint64_t calls_before = g_last_candidate_calls.load();
  ThreadPoolExecutor executor;
  ExecOutcome outcome;
  ASSERT_TRUE(executor.Execute(query, options, db.store, &outcome).ok());
  EXPECT_GT(g_last_candidate_calls.load(), calls_before);
  std::vector<std::string> duplicates;
  EXPECT_EQ(KeysOf(outcome.results, &duplicates),
            BruteForceResultSet(query, db.store));
  EXPECT_TRUE(duplicates.empty());
  EXPECT_TRUE(outcome.violations.empty());
}

TEST(ThreadedEquivalence, NaryShjHonoursProbeOrder) {
  // Skewed chain R - S - T: every R row joins every S row (40 × 40 pairs),
  // S ⋈ T is small. Only an S singleton has a choice (R or T). Preferring
  // R materializes all 1600 R⋈S pairs whatever the interleaving: each
  // pair is made by its newer side, and both sides probe towards the
  // other. Preferring T makes an R⋈S pair only when the R row is the
  // newer one, and R's chunks are all claimed before any of S's, so only
  // the one R chunk another worker still holds (8 rows, 320 pairs at
  // most) can be newer than an S row. The match counts cannot meet.
  std::vector<std::vector<int64_t>> r_rows, s_rows, t_rows;
  for (int64_t i = 0; i < 40; ++i) r_rows.push_back({0, i});
  for (int64_t i = 0; i < 40; ++i) s_rows.push_back({0, i});
  for (int64_t i = 0; i < 8; ++i) t_rows.push_back({i * 5});
  TestDb db;
  db.AddTable("R", IntSchema({"a", "id"}), IntRows(r_rows),
              {ScanSpec("R.scan")});
  db.AddTable("S", IntSchema({"x", "y"}), IntRows(s_rows),
              {ScanSpec("S.scan")});
  db.AddTable("T", IntSchema({"u"}), IntRows(t_rows), {ScanSpec("T.scan")});
  QueryBuilder qb(db.catalog);
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
  const QuerySpec query = std::move(qb).Build().ValueOrDie();
  const std::set<std::string> expected = BruteForceResultSet(query, db.store);
  ASSERT_EQ(expected.size(), 40u * 8u);

  RunOptions options;
  options.policy_params.probe_order = {2, 0, 1};  // S probes T first
  const RunSummary t_first = RunThreaded(query, db, "nary_shj", 8, 2, options);
  options.policy_params.probe_order = {0, 2, 1};  // S probes R first
  const RunSummary r_first = RunThreaded(query, db, "nary_shj", 8, 2, options);
  EXPECT_EQ(t_first.keys, expected);
  EXPECT_EQ(r_first.keys, expected);
  EXPECT_TRUE(t_first.duplicates.empty());
  EXPECT_TRUE(r_first.duplicates.empty());
  // T first: 8 S⋈T pairs + at most 320 R⋈S pairs + 320 results.
  EXPECT_LT(t_first.outcome.totals.matches, 40u * 40u);
  EXPECT_GE(r_first.outcome.totals.matches, 40u * 40u + expected.size());
}

TEST(ThreadedEquivalence, RandomQueriesMatchBruteForce) {
  for (uint64_t seed = 100; seed < 103; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TestDb db;
    db.AddTable("R", IntSchema({"a", "b"}),
                RandomIntRows(seed, 25 + seed % 10, 2, 7),
                {ScanSpec("R.scan")});
    db.AddTable("S", IntSchema({"x", "y"}),
                RandomIntRows(seed + 50, 25, 2, 7), {ScanSpec("S.scan")});
    db.AddTable("T", IntSchema({"u"}), RandomIntRows(seed + 90, 20, 1, 7),
                {ScanSpec("T.scan")});
    QueryBuilder qb(db.catalog);
    qb.AddTable("R").AddTable("S").AddTable("T");
    qb.AddJoin("R.a", "S.x").AddJoin("S.y", "T.u");
    if (seed % 2 == 0) {
      qb.AddSelection("S.y", CompareOp::kGe, Value::Int64(2));
    }
    ExpectEquivalence(std::move(qb).Build().ValueOrDie(), db);
  }
}

}  // namespace
}  // namespace stems
