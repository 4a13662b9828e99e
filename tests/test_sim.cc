// Unit tests: discrete-event simulator and latency models.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "sim/latency_model.h"
#include "sim/simulation.h"

namespace stems {
namespace {

static_assert(std::is_trivially_copyable_v<EventQueue::Entry>);
static_assert(sizeof(EventQueue::Entry) <= 32);

/// One delivery: the target's id, the argument and the clock.
struct Delivery {
  int target;
  uint64_t arg;
  SimTime at;
  bool operator==(const Delivery&) const = default;
};

class Recorder : public EventTarget {
 public:
  Recorder(int id, const Simulation* sim, std::vector<Delivery>* log)
      : id_(id), sim_(sim), log_(log) {}
  void OnEvent(uint64_t arg) override {
    log_->push_back({id_, arg, sim_ == nullptr ? 0 : sim_->now()});
  }

 private:
  int id_;
  const Simulation* sim_;
  std::vector<Delivery>* log_;
};

TEST(EventQueueTest, OrdersByTimeThenInsertion) {
  EventQueue q;
  std::vector<Delivery> log;
  Recorder r(0, nullptr, &log);
  q.Push(10, &r, 1);
  q.Push(5, &r, 2);
  q.Push(10, &r, 3);
  q.Push(1, &r, 4);
  std::vector<uint64_t> order;
  std::vector<SimTime> times;
  while (!q.empty()) {
    const EventQueue::Entry e = q.Pop();
    EXPECT_EQ(e.target, &r);
    order.push_back(e.arg);
    times.push_back(e.time);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 2, 1, 3}));
  EXPECT_EQ(times, (std::vector<SimTime>{1, 5, 10, 10}));
}

TEST(EventQueueTest, NextTime) {
  EventQueue q;
  Recorder r(0, nullptr, nullptr);
  EXPECT_EQ(q.NextTime(), kSimTimeNever);
  q.Push(7, &r, 0);
  EXPECT_EQ(q.NextTime(), 7);
  q.Push(3, &r, 0);
  EXPECT_EQ(q.NextTime(), 3);
}

TEST(SimulationTest, EqualTimeEventsRunFifoAcrossTargets) {
  Simulation sim;
  std::vector<Delivery> log;
  Recorder a(1, &sim, &log);
  Recorder b(2, &sim, &log);
  sim.Schedule(5, &a, 10);
  sim.Schedule(5, &b, 20);
  sim.At(5, &a, 11);
  sim.Schedule(5, &b, 21);
  sim.Schedule(4, &b, 22);
  sim.Run();
  const std::vector<Delivery> expected = {
      {2, 22, 4},
      {1, 10, 5},
      {2, 20, 5},
      {1, 11, 5},
      {2, 21, 5},
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.events_processed(), 5u);
}

/// Re-schedules itself: arg 1 at t=50 schedules arg 2 25us later.
class Chain : public EventTarget {
 public:
  explicit Chain(Simulation* sim) : sim_(sim) {}
  void OnEvent(uint64_t arg) override {
    times.push_back(sim_->now());
    if (arg == 1) sim_->Schedule(25, this, 2);
    if (arg == 3) sim_->Schedule(-5, this, 4);
  }
  std::vector<SimTime> times;

 private:
  Simulation* sim_;
};

TEST(SimulationTest, TimeAdvancesMonotonically) {
  Simulation sim;
  Chain chain(&sim);
  sim.Schedule(100, &chain, 0);
  sim.Schedule(50, &chain, 1);
  sim.Run();
  EXPECT_EQ(chain.times, (std::vector<SimTime>{50, 75, 100}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim;
  Chain chain(&sim);
  sim.Schedule(10, &chain, 3);
  sim.Run();
  EXPECT_EQ(chain.times, (std::vector<SimTime>{10, 10}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(SimulationTest, RunUntilStopsAtLimit) {
  Simulation sim;
  std::vector<Delivery> log;
  Recorder r(0, &sim, &log);
  for (SimTime t = 10; t <= 100; t += 10) sim.At(t, &r, 0);
  EXPECT_FALSE(sim.RunUntil(50));
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_TRUE(sim.RunUntil(1000));
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(SimulationTest, RunSteps) {
  Simulation sim;
  std::vector<Delivery> log;
  Recorder r(0, &sim, &log);
  for (int i = 0; i < 10; ++i) sim.Schedule(i, &r, static_cast<uint64_t>(i));
  EXPECT_EQ(sim.RunSteps(4), 4u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.back().arg, 3u);
  EXPECT_FALSE(sim.Idle());
  EXPECT_EQ(sim.RunSteps(100), 6u);
  EXPECT_TRUE(sim.Idle());
  EXPECT_EQ(sim.events_processed(), 10u);
}

/// Owns two kinds of event through MemberEvent adaptors.
class TwoEvents {
 public:
  explicit TwoEvents(Simulation* sim) : sim_(sim) {}
  void Start() {
    sim_->Schedule(2, &second_, 7);
    sim_->Schedule(1, &first_, 5);
  }
  std::vector<std::pair<char, uint64_t>> seen;

 private:
  void First(uint64_t arg) { seen.emplace_back('a', arg); }
  void Second(uint64_t arg) { seen.emplace_back('b', arg); }

  Simulation* sim_;
  MemberEvent<&TwoEvents::First> first_{this};
  MemberEvent<&TwoEvents::Second> second_{this};
};

TEST(SimulationTest, MemberEventsForwardTheirArgument) {
  Simulation sim;
  TwoEvents owner(&sim);
  owner.Start();
  sim.Run();
  const std::vector<std::pair<char, uint64_t>> expected = {{'a', 5}, {'b', 7}};
  EXPECT_EQ(owner.seen, expected);
}

TEST(LatencyModelTest, Fixed) {
  FixedLatency m(Millis(30));
  Rng rng(1);
  EXPECT_EQ(m.Sample(0, rng), Millis(30));
  EXPECT_EQ(m.Sample(Seconds(5), rng), Millis(30));
}

TEST(LatencyModelTest, UniformWithinBounds) {
  UniformLatency m(10, 20);
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    SimTime s = m.Sample(0, rng);
    EXPECT_GE(s, 10);
    EXPECT_LE(s, 20);
  }
}

TEST(LatencyModelTest, StallWindowDefersCompletion) {
  StallWindowLatency m(std::make_unique<FixedLatency>(Millis(10)),
                       {{Seconds(1), Seconds(5)}});
  Rng rng(3);
  // Outside the window: base latency.
  EXPECT_EQ(m.Sample(0, rng), Millis(10));
  EXPECT_EQ(m.Sample(Seconds(6), rng), Millis(10));
  // Inside: completes no earlier than the window end.
  EXPECT_EQ(m.Sample(Seconds(2), rng), Seconds(3));
  // Near the end, base latency dominates again.
  EXPECT_EQ(m.Sample(Seconds(5) - Millis(1), rng), Millis(10));
}

TEST(LatencyModelTest, ExponentialHasRoughlyRightMean) {
  ExponentialLatency m(Millis(100));
  Rng rng(4);
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(m.Sample(0, rng));
  const double mean = sum / n;
  EXPECT_GT(mean, 90000.0);
  EXPECT_LT(mean, 110000.0);
}

}  // namespace
}  // namespace stems
