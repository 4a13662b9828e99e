// Allocation budget and fidelity gate for the sim's per-tuple path.
//
// A counting global operator new (this binary only) measures the heap
// allocations of one fixed query from Submit until its results are drained:
// RunOptions::Paper() (benefit/cost eddy, batch size 1) over a 3-way chain
// join whose third table offers a scan and an index access method. The
// per-tuple path -- routing events, module service events, tuple
// construction -- must stay allocation-free, so allocations per routed
// tuple stay near one (SteM entries, index postings and the result buffer
// remain).
//
// The same run pins the simulation's observable behaviour: events
// processed, the final virtual time, tuples routed and the result count.
// They are deterministic; a change to any of them changes what the
// simulator computes, not just how fast.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "engine/engine.h"
#include "tests/test_util.h"

namespace {

// relaxed: a single-threaded count, read after the counted work returns.
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace stems {
namespace {

using testing::IndexSpec;
using testing::IntRows;
using testing::IntSchema;
using testing::ScanSpec;

struct RunOutcome {
  uint64_t allocs = 0;
  uint64_t events = 0;
  SimTime final_time = 0;
  uint64_t routed = 0;
  size_t results = 0;
  size_t violations = 0;
};

/// R(id, a, k) ⋈ S(id, a, b) ⋈ T(id, b, c) on a fresh engine, with
/// selections on R.k and T.c.
RunOutcome RunChainJoin() {
  Engine engine;
  std::vector<std::vector<int64_t>> r, s, t;
  for (int64_t i = 0; i < 200; ++i) r.push_back({i, (i * 7) % 50, i % 100});
  for (int64_t i = 0; i < 200; ++i) {
    s.push_back({i, (i * 3) % 50, (i * 11) % 40});
  }
  for (int64_t i = 0; i < 120; ++i) t.push_back({i, i % 40, (i * 13) % 100});
  EXPECT_TRUE(engine
                  .AddTable(TableDef{"R", IntSchema({"id", "a", "k"}),
                                     {ScanSpec("R.scan")}},
                            IntRows(r))
                  .ok());
  EXPECT_TRUE(engine
                  .AddTable(TableDef{"S", IntSchema({"id", "a", "b"}),
                                     {ScanSpec("S.scan")}},
                            IntRows(s))
                  .ok());
  EXPECT_TRUE(engine
                  .AddTable(TableDef{"T", IntSchema({"id", "b", "c"}),
                                     {ScanSpec("T.scan"),
                                      IndexSpec("T.idx_b", {1})}},
                            IntRows(t))
                  .ok());
  QueryBuilder qb(engine.catalog());
  qb.AddTable("R").AddTable("S").AddTable("T");
  qb.AddJoin("R.a", "S.a").AddJoin("S.b", "T.b");
  qb.AddSelection("R.k", CompareOp::kLt, Value::Int64(60));
  qb.AddSelection("T.c", CompareOp::kLt, Value::Int64(60));
  const QuerySpec spec = qb.Build().ValueOrDie();

  RunOutcome out;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  {
    QueryHandle handle = engine.Submit(spec, RunOptions::Paper()).ValueOrDie();
    out.results = handle.cursor().Drain().size();
    g_counting.store(false, std::memory_order_relaxed);
    const QueryStats stats = handle.Stats();
    out.routed = stats.tuples_routed;
    out.violations = stats.constraint_violations;
  }
  out.allocs = g_allocs.load(std::memory_order_relaxed);
  out.events = engine.sim().events_processed();
  out.final_time = engine.sim().now();
  return out;
}

TEST(AllocBudgetTest, PerTuplePathStaysAllocationFree) {
  if (!Tuple::kCachesBlocks) {
    GTEST_SKIP() << "tuple blocks are not cached under AddressSanitizer";
  }
  const RunOutcome run = RunChainJoin();
  ASSERT_GT(run.routed, 0u);
  const double per_routed =
      static_cast<double>(run.allocs) / static_cast<double>(run.routed);
  std::printf("allocs = %llu, routed = %llu, allocs/routed = %.3f\n",
              static_cast<unsigned long long>(run.allocs),
              static_cast<unsigned long long>(run.routed), per_routed);
  EXPECT_LE(per_routed, 1.2);
}

TEST(AllocBudgetTest, SimulationMatchesPinnedRun) {
  const RunOutcome run = RunChainJoin();
  EXPECT_EQ(run.violations, 0u);
  EXPECT_EQ(run.events, 5046u);
  EXPECT_EQ(run.final_time, 201005);
  EXPECT_EQ(run.routed, 2704u);
  EXPECT_EQ(run.results, 888u);
}

}  // namespace
}  // namespace stems
