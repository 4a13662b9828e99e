// Unit tests: Tuple, TupleState and timestamp semantics (paper Defs. 1-3,
// §3.1, §3.5).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/tuple.h"

namespace stems {
namespace {

TEST(TupleTest, SingletonBasics) {
  TuplePtr t = Tuple::MakeSingleton(3, 1, MakeRow({Value::Int64(5)}));
  EXPECT_TRUE(t->IsSingleton());
  EXPECT_EQ(t->SingletonSlot(), 1);
  EXPECT_EQ(t->spanned_mask(), 0b010u);
  EXPECT_TRUE(t->Spans(1));
  EXPECT_FALSE(t->Spans(0));
  EXPECT_EQ(t->SpanSize(), 1);
  EXPECT_EQ(t->ValueAt(1, 0)->AsInt64(), 5);
  EXPECT_EQ(t->ValueAt(0, 0), nullptr);
  EXPECT_EQ(t->ValueAt(1, 7), nullptr);
}

TEST(TupleTest, SeedTuple) {
  TuplePtr seed = Tuple::MakeSeed(2);
  EXPECT_TRUE(seed->is_seed());
  EXPECT_EQ(seed->spanned_mask(), 0u);
  EXPECT_EQ(seed->SingletonSlot(), -1);
}

TEST(TupleTest, TimestampInfinityBeforeBuild) {
  // Paper §3.1: before building, ts is infinity.
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(1)}));
  EXPECT_EQ(t->Timestamp(), kTsInfinity);
  EXPECT_FALSE(t->AllComponentsBuilt());
  t->SetBuilt(0, 17);
  EXPECT_EQ(t->Timestamp(), 17u);
  EXPECT_TRUE(t->AllComponentsBuilt());
}

TEST(TupleTest, CompositeTimestampIsLastArrival) {
  // Paper §3.1: a composite's timestamp is its last-arriving component's.
  TuplePtr a = Tuple::MakeSingleton(3, 0, MakeRow({Value::Int64(1)}));
  a->SetBuilt(0, 5);
  TuplePtr ab = a->ConcatWith(1, MakeRow({Value::Int64(2)}), 9);
  EXPECT_EQ(ab->Timestamp(), 9u);
  TuplePtr abc = ab->ConcatWith(2, MakeRow({Value::Int64(3)}), 7);
  EXPECT_EQ(abc->Timestamp(), 9u);
  // An unbuilt component makes the whole tuple "infinity".
  TuplePtr with_unbuilt = a->ConcatWith(1, MakeRow({Value::Int64(2)}),
                                        kTsInfinity);
  EXPECT_EQ(with_unbuilt->Timestamp(), kTsInfinity);
}

TEST(TupleTest, ConcatPreservesStateAndPriority) {
  TuplePtr a = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(1)}));
  a->MarkPredicatePassed(3);
  a->set_prioritized(true);
  TuplePtr ab = a->ConcatWith(1, MakeRow({Value::Int64(2)}), 1);
  EXPECT_TRUE(ab->PassedPredicate(3));
  EXPECT_TRUE(ab->prioritized());
  EXPECT_EQ(ab->spanned_mask(), 0b11u);
  // The original is untouched.
  EXPECT_EQ(a->spanned_mask(), 0b01u);
}

TEST(TupleTest, PriorProberState) {
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(1)}));
  EXPECT_FALSE(t->IsPriorProber());
  t->MarkPriorProber(1);
  EXPECT_TRUE(t->IsPriorProber());
  EXPECT_EQ(t->probe_completion_slot(), 1);
  EXPECT_FALSE(t->probe_completed());
  t->MarkProbeCompleted();
  EXPECT_TRUE(t->probe_completed());
}

TEST(TupleTest, RetargetSingletonMovesComponent) {
  TuplePtr t = Tuple::MakeSingleton(2, 0, MakeRow({Value::Int64(1)}));
  t->SetBuilt(0, 4);
  t->MarkPredicatePassed(0);
  TuplePtr moved = t->RetargetSingleton(1);
  EXPECT_TRUE(moved->Spans(1));
  EXPECT_FALSE(moved->Spans(0));
  EXPECT_EQ(moved->component(1).timestamp, 4u);
  // Predicate state must not transfer (bits refer to the old slot).
  EXPECT_FALSE(moved->PassedPredicate(0));
}

TEST(TupleTest, EotDetection) {
  TuplePtr t = Tuple::MakeSingleton(
      2, 0, MakeEotRowRef({Value::Int64(1), Value::Eot()}));
  EXPECT_TRUE(t->IsEot());
}

TEST(TupleTest, EotBitFollowsSetComponent) {
  TuplePtr t = Tuple::MakeSingleton(3, 0, MakeRow({Value::Int64(1)}));
  EXPECT_FALSE(t->IsEot());
  TuplePtr eot = t->ConcatWith(2, MakeEotRowRef({Value::Eot()}), 1);
  EXPECT_TRUE(eot->IsEot());
  EXPECT_FALSE(t->IsEot());
  // Clearing the EOT component clears the bit.
  eot->SetComponent(2, nullptr);
  EXPECT_FALSE(eot->IsEot());
  eot->SetComponent(1, MakeEotRowRef({Value::Eot()}));
  EXPECT_TRUE(eot->IsEot());
  eot->SetComponent(1, MakeRow({Value::Int64(3)}));
  EXPECT_FALSE(eot->IsEot());
}

// Queries wider than Tuple::kInlineSlots keep their components outside the
// tuple block; every derivation must behave as it does inline.
class WideTupleTest : public ::testing::TestWithParam<int> {};

TEST_P(WideTupleTest, DerivationsMatchInlineBehaviour) {
  const int n = GetParam();
  ASSERT_GT(n, Tuple::kInlineSlots);
  const int last = n - 1;
  TuplePtr a = Tuple::MakeSingleton(n, last, MakeRow({Value::Int64(7)}));
  EXPECT_EQ(a->num_slots(), n);
  EXPECT_EQ(a->SingletonSlot(), last);
  EXPECT_EQ(a->ValueAt(last, 0)->AsInt64(), 7);
  EXPECT_EQ(a->ValueAt(0, 0), nullptr);
  EXPECT_FALSE(a->IsEot());
  EXPECT_EQ(a->Timestamp(), kTsInfinity);
  a->SetBuilt(last, 3);
  EXPECT_EQ(a->Timestamp(), 3u);

  // Concatenate a component into every other slot.
  TuplePtr t = a;
  for (int s = 0; s < last; ++s) {
    t = t->ConcatWith(s, MakeRow({Value::Int64(s)}),
                      static_cast<BuildTs>(10 + s));
  }
  EXPECT_EQ(t->SpanSize(), n);
  EXPECT_EQ(t->Timestamp(), static_cast<BuildTs>(10 + last - 1));
  EXPECT_TRUE(t->AllComponentsBuilt());
  for (int s = 0; s < last; ++s) EXPECT_EQ(t->ValueAt(s, 0)->AsInt64(), s);
  EXPECT_EQ(t->ValueAt(last, 0)->AsInt64(), 7);
  EXPECT_EQ(a->SpanSize(), 1);  // the source is untouched

  TuplePtr eot = a->ConcatWith(0, MakeEotRowRef({Value::Eot()}), 1);
  EXPECT_TRUE(eot->IsEot());
  EXPECT_FALSE(a->IsEot());

  TuplePtr moved = a->RetargetSingleton(last - 1);
  EXPECT_EQ(moved->SingletonSlot(), last - 1);
  EXPECT_EQ(moved->component(last - 1).timestamp, 3u);
  EXPECT_EQ(moved->ValueAt(last - 1, 0)->AsInt64(), 7);
  EXPECT_EQ(moved->Timestamp(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Slots, WideTupleTest, ::testing::Values(5, 64));

TEST(TupleBlockTest, TupleBuiltOnAnotherThreadDiesOnThisOne) {
  // The block returns to the freeing thread's cache; the building thread's
  // cache is drained when it exits.
  TuplePtr t;
  std::thread builder([&t] {
    TuplePtr a = Tuple::MakeSingleton(3, 0, MakeRow({Value::Int64(1)}));
    t = a->ConcatWith(1, MakeRow({Value::Int64(2)}), 4);
  });
  builder.join();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->SpanSize(), 2);
  EXPECT_EQ(t->ValueAt(1, 0)->AsInt64(), 2);
  t.reset();
  // Reuse on this thread: a fresh tuple is fully reset.
  TuplePtr fresh = Tuple::Make(3);
  EXPECT_EQ(fresh->spanned_mask(), 0u);
  EXPECT_FALSE(fresh->IsEot());
}

TEST(TupleBlockTest, ThreadCacheIsCapped) {
  {
    std::vector<TuplePtr> live;
    live.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      live.push_back(
          Tuple::MakeSingleton(2, i % 2, MakeRow({Value::Int64(i)})));
    }
  }
  EXPECT_LE(Tuple::ThreadCachedBlocks(), Tuple::kBlockCacheCap);
  if (Tuple::kCachesBlocks) {
    EXPECT_EQ(Tuple::ThreadCachedBlocks(), Tuple::kBlockCacheCap);
  }
}

TEST(TupleTest, TimestampAuthorityMonotone) {
  TimestampAuthority ts;
  BuildTs a = ts.Issue();
  BuildTs b = ts.Issue();
  EXPECT_LT(a, b);
  EXPECT_EQ(ts.last_issued(), b);
}

TEST(CounterSeriesTest, StepSemantics) {
  CounterSeries s;
  s.Increment(10);
  s.Increment(10);
  s.Increment(20, 3);
  EXPECT_EQ(s.total(), 5);
  EXPECT_EQ(s.ValueAt(5), 0);
  EXPECT_EQ(s.ValueAt(10), 2);
  EXPECT_EQ(s.ValueAt(15), 2);
  EXPECT_EQ(s.ValueAt(20), 5);
  EXPECT_EQ(s.ValueAt(100), 5);
  EXPECT_EQ(s.TimeToReach(1), 10);
  EXPECT_EQ(s.TimeToReach(5), 20);
  EXPECT_EQ(s.TimeToReach(6), kSimTimeNever);
}

TEST(CounterSeriesTest, Sampling) {
  CounterSeries s;
  s.Increment(0);
  s.Increment(100, 9);
  auto samples = s.Sample(100, 3);
  EXPECT_EQ(samples, (std::vector<int64_t>{1, 1, 10}));
}

TEST(MetricsRecorderTest, NamedSeries) {
  MetricsRecorder m;
  m.Count("a", 5);
  m.Count("a", 7, 2);
  EXPECT_TRUE(m.Has("a"));
  EXPECT_FALSE(m.Has("b"));
  EXPECT_EQ(m.Series("a").total(), 3);
  EXPECT_EQ(m.Series("missing").total(), 0);  // empty sentinel
}

}  // namespace
}  // namespace stems
