// Unit tests for the discrete-event engine and RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mra::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&]() { order.push_back(3); });
  q.schedule(10, [&]() { order.push_back(1); });
  q.schedule(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameInstantFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i]() { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EmptyQueueReportsInfinity) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

// The slab recycles the slot of every fired event, so a million
// schedule/pop cycles must not grow memory past the peak number of
// outstanding events — on the heap, and on the in-order lane, where these
// increasing times all land.
TEST(EventQueue, BoundedMemoryOverMillionEvents) {
  for (const bool in_order : {false, true}) {
    EventQueue q;
    for (int wave = 0; wave < 1000; ++wave) {
      for (int i = 0; i < 1000; ++i) {
        const auto at = static_cast<SimTime>(wave * 1000 + i);
        if (in_order) {
          q.schedule_in_order(at, []() {});
        } else {
          q.schedule(at, []() {});
        }
      }
      EXPECT_EQ(q.size(), 1000u);
      while (!q.empty()) q.pop().callback();
    }
    EXPECT_EQ(q.total_scheduled(), 1'000'000u);
    EXPECT_EQ(q.next_time(), kTimeInfinity);
    EXPECT_EQ(q.capacity(), 1000u) << "in_order " << in_order;
  }
}

// Same seed, same interleaving of schedule/pop -> bit-identical Fired
// sequence. Guards against any address- or hash-dependent ordering
// sneaking into the queue (the trace replay tests depend on this).
TEST(EventQueue, DeterministicFiredSequenceUnderInterleavedSchedulePop) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<std::pair<SimTime, int>> fired;
    int tag = 0;
    for (int step = 0; step < 20000; ++step) {
      if (rng.uniform_int(0, 9) < 6) {
        const auto at = static_cast<SimTime>(rng.uniform_int(0, 5000));
        const int t = tag++;
        q.schedule(at, [&fired, at, t]() { fired.emplace_back(at, t); });
      } else if (!q.empty()) {
        q.pop().callback();
      }
    }
    while (!q.empty()) q.pop().callback();
    return fired;
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(Simulator, ClockFollowsEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_in(100, [&]() { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilHorizonAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(50, [&]() { ++fired; });
  sim.schedule_in(500, [&]() { ++fired; });
  sim.run(/*until=*/200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200);  // clock lands exactly on the horizon
  sim.run(/*until=*/1000);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(200, [&]() { ++fired; });
  sim.run(/*until=*/200);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, NestedSchedulingKeepsOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(10, [&]() {
    order.push_back(1);
    sim.schedule_in(0, [&]() { order.push_back(2); });  // same instant, later
    sim.schedule_in(5, [&]() { order.push_back(4); });
  });
  sim.schedule_in(10, [&]() { order.push_back(3); });  // scheduled first? no:
  // scheduled earlier than the nested ones but at the same instant as #1.
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 4}));
}

// Chains of zero-delay events drain within one instant, in schedule order,
// without the clock moving.
TEST(Simulator, ZeroDelayChainsDrainWithinOneInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(5, [&]() {
    order.push_back(1);
    sim.schedule_in(0, [&]() {
      order.push_back(3);
      sim.schedule_in(0, [&]() { order.push_back(4); });
      EXPECT_EQ(sim.now(), 5);
    });
  });
  sim.schedule_in(5, [&]() { order.push_back(2); });
  sim.schedule_in(6, [&]() { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), 6);
}

TEST(Simulator, StopEndsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1, [&]() {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(2, [&]() { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    sim.schedule_in(10, tick);
  };
  sim.schedule_in(0, tick);
  sim.run_until([&]() { return count >= 5; });
  EXPECT_EQ(count, 5);
}

TEST(Simulator, EventBudgetThrows) {
  Simulator sim;
  sim.set_event_budget(100);
  std::function<void()> loop = [&]() { sim.schedule_in(1, loop); };
  sim.schedule_in(0, loop);
  EXPECT_THROW(sim.run(), EventBudgetExceeded);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_in(10, [&]() {
    sim.schedule_in(-5, [&]() { seen = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(seen, 10);
}

// ---------------------------------------------------------------------------
// Commutation (model-checking) mode: the contract DporScheduler relies on.
// ---------------------------------------------------------------------------

/// Records every round it is shown; optionally reverses the round's order.
class RecordingHook final : public CommutationHook {
 public:
  struct Round {
    SimTime at;
    std::vector<int> tags;
    bool operator==(const Round&) const = default;
  };

  void on_round(SimTime at, const std::vector<int>& tags,
                std::vector<std::size_t>& order) override {
    rounds.push_back(Round{at, tags});
    if (reverse) std::reverse(order.begin(), order.end());
  }

  std::vector<Round> rounds;
  bool reverse = false;
};

/// Same-instant cascades, tagged and untagged events, and later instants:
/// every shape the commuting run loop has to drain in rounds.
void schedule_cascades(Simulator& sim, std::vector<int>& log) {
  sim.schedule_in(5, 0, [&]() {
    log.push_back(1);
    sim.schedule_in(0, 1, [&]() {
      log.push_back(4);
      sim.schedule_in(0, [&]() { log.push_back(7); });
      sim.schedule_in(3, 0, [&]() { log.push_back(10); });
    });
    sim.schedule_in(0, [&]() { log.push_back(5); });
  });
  sim.schedule_in(5, [&]() { log.push_back(2); });
  sim.schedule_in(5, 1, [&]() {
    log.push_back(3);
    sim.schedule_in(0, 0, [&]() { log.push_back(6); });
  });
  sim.schedule_in(8, 2, [&]() { log.push_back(8); });
  sim.schedule_in(8, 2, [&]() { log.push_back(9); });
  sim.schedule_in(12, [&]() { log.push_back(11); });
}

TEST(SimulatorCommuting, IdentityOrderFiresLikeThePlainLoop) {
  std::vector<int> plain_log;
  Simulator plain;
  schedule_cascades(plain, plain_log);
  const std::uint64_t plain_fired = plain.run();

  std::vector<int> hooked_log;
  RecordingHook hook;
  Simulator hooked;
  hooked.set_commutation_hook(&hook);
  schedule_cascades(hooked, hooked_log);
  const std::uint64_t hooked_fired = hooked.run();

  EXPECT_EQ(plain_log, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(hooked_log, plain_log);
  EXPECT_EQ(hooked_fired, plain_fired);
  EXPECT_EQ(hooked.events_processed(), plain.events_processed());
  EXPECT_EQ(hooked.now(), plain.now());
  EXPECT_TRUE(hooked.idle());
}

TEST(SimulatorCommuting, StopMidRoundRequeuesTheTailInTheChosenOrder) {
  RecordingHook hook;
  hook.reverse = true;
  Simulator sim;
  sim.set_commutation_hook(&hook);
  std::vector<int> log;
  sim.schedule_in(10, 0, [&]() { log.push_back(1); });
  sim.schedule_in(10, 1, [&]() { log.push_back(2); });
  sim.schedule_in(10, 2, [&]() {
    log.push_back(3);
    sim.schedule_in(0, 3, [&]() { log.push_back(4); });
    sim.stop();
  });
  sim.schedule_in(20, 4, [&]() { log.push_back(5); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(log, (std::vector<int>{3}));
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.queue_depth(), 4u);

  // The next run sees the event #3 scheduled first, then the unexecuted
  // tail in the order the hook chose (#2 before #1).
  hook.reverse = false;
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(log, (std::vector<int>{3, 4, 2, 1, 5}));
  ASSERT_EQ(hook.rounds.size(), 2u);
  EXPECT_EQ(hook.rounds[0], (RecordingHook::Round{10, {0, 1, 2}}));
  EXPECT_EQ(hook.rounds[1], (RecordingHook::Round{10, {3, 1, 0}}));
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorCommuting, HookSeesOnlyMultiEventRoundsInTimeSeqOrder) {
  RecordingHook hook;
  Simulator sim;
  sim.set_commutation_hook(&hook);
  int fired = 0;
  sim.schedule_in(5, 9, [&]() { ++fired; });
  sim.schedule_in(10, 2, [&]() {
    ++fired;
    sim.schedule_in(0, 7, [&]() { ++fired; });
    sim.schedule_in(0, [&]() { ++fired; });
  });
  sim.schedule_in(10, 0, [&]() { ++fired; });
  sim.schedule_in(10, 1, [&]() {
    ++fired;
    sim.schedule_in(10, 5, [&]() { ++fired; });
  });
  sim.schedule_in(20, 4, [&]() { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 8);
  const std::vector<RecordingHook::Round> expected = {
      {10, {2, 0, 1}},
      {10, {7, Simulator::kNoCommuteTag}},
      {20, {4, 5}},
  };
  EXPECT_EQ(hook.rounds, expected);
}

// ---------------------------------------------------------------------------
// The in-order lane (EventQueue::schedule_in_order, reached through
// Simulator::schedule_in_order_at) decides where an event waits, never when
// it fires.
// ---------------------------------------------------------------------------

TEST(EventQueueLane, HeapAndLaneEventsAtOneInstantFireBySeq) {
  EventQueue q;
  std::vector<int> order;
  auto log = [&order](int i) { return [&order, i]() { order.push_back(i); }; };
  q.schedule_in_order(10, log(0));  // lane
  q.schedule(10, log(1));           // heap
  q.schedule_in_order(10, log(2));  // lane (equal time appends)
  q.schedule(10, log(3));           // heap
  q.schedule(5, log(4));            // heap, earlier instant
  q.schedule_in_order(20, log(5));  // lane
  q.schedule_in_order(10, log(6));  // before the lane's last entry: heap
  q.schedule_in_order(20, log(7));  // lane
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.next_time(), 5);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{4, 0, 1, 2, 3, 6, 5, 7}));

  // The same through fire_next_at, with a heap event scheduled first and
  // same-instant events added by the callbacks into both structures.
  order.clear();
  q.schedule(30, log(0));
  q.schedule_in_order(30, [&]() {
    order.push_back(1);
    q.schedule(30, log(3));
    q.schedule_in_order(30, log(4));
  });
  q.schedule(30, log(2));
  SimTime next = q.next_time();
  ASSERT_EQ(next, 30);
  while (q.fire_next_at(30, &next)) {
  }
  EXPECT_EQ(next, kTimeInfinity);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/// A seeded workload shaped like a network run: deliveries at now +
/// latency (usually equal or later than the last one, sometimes a step
/// back that must fall back to the heap), site timers, same-instant events
/// scheduled from callbacks, and a far timeout per delivery. Half the
/// timeouts take the lane, which sends the deliveries scheduled after one
/// to the heap until it fires. With `lane` set the deliveries go through
/// schedule_in_order_at, otherwise through schedule_at; every draw is the
/// same, so both runs must log the same fired events in the same order.
class LaneMix {
 public:
  LaneMix(bool lane, std::uint64_t seed) : lane_(lane), rng_(seed) {}

  std::vector<std::int64_t> run(CommutationHook* hook = nullptr) {
    sim_.set_commutation_hook(hook);
    for (int chain = 0; chain < 96; ++chain) deliver(chain);
    sim_.run();
    EXPECT_TRUE(sim_.idle());
    return log_;
  }

 private:
  static constexpr SimDuration kLatency = 600;
  static constexpr int kBudget = 40'000;

  void deliver(int chain) {
    SimDuration latency = kLatency;
    const auto draw = rng_.uniform_int(0, 9);
    if (draw < 2) latency -= rng_.uniform_int(1, 60);  // a step back
    if (draw >= 7) latency += rng_.uniform_int(1, 30);
    if (draw == 9) latency = 0;  // this instant, from a callback
    const int tag = next_tag_++;
    auto fire = [this, chain, tag]() { on_fire(chain, tag); };
    if (lane_) {
      sim_.schedule_in_order_at(sim_.now() + latency, chain, fire);
    } else {
      sim_.schedule_at(sim_.now() + latency, chain, fire);
    }
  }

  void on_fire(int chain, int tag) {
    log_.push_back(sim_.now());
    log_.push_back(tag);
    if (next_tag_ >= kBudget) return;
    deliver(chain);
    if (rng_.uniform_int(0, 3) == 0) deliver(chain);  // a second send
    if (rng_.uniform_int(0, 4) == 0) {
      const int timer = next_tag_++;
      sim_.schedule_in(rng_.uniform_int(0, 1500), chain,
                       [this, timer]() { log_.push_back(-timer); });
    }
    const int t = next_tag_++;
    const SimTime at = sim_.now() + 20 * kLatency;
    auto expire = [this, t]() { log_.push_back(-t); };
    if (lane_ && t % 2 == 0) {
      sim_.schedule_in_order_at(at, chain, expire);
    } else {
      sim_.schedule_at(at, chain, expire);
    }
  }

  bool lane_;
  Rng rng_;
  Simulator sim_;
  int next_tag_ = 0;
  std::vector<std::int64_t> log_;
};

TEST(EventQueueLane, RandomMixFiresExactlyLikeScheduleAt) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::int64_t> heap_only = LaneMix(false, seed).run();
    const std::vector<std::int64_t> mixed = LaneMix(true, seed).run();
    ASSERT_GT(heap_only.size(), 50'000u);
    EXPECT_EQ(mixed, heap_only) << "seed " << seed;
  }
}

TEST(EventQueueLane, HookedRunsScheduleAsScheduleAt) {
  RecordingHook plain_hook;
  RecordingHook lane_hook;
  const std::vector<std::int64_t> plain = LaneMix(false, 7).run(&plain_hook);
  const std::vector<std::int64_t> lane = LaneMix(true, 7).run(&lane_hook);
  EXPECT_EQ(lane, plain);
  EXPECT_FALSE(plain_hook.rounds.empty());
  EXPECT_EQ(lane_hook.rounds, plain_hook.rounds);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRangeAndHitsEnds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    saw_lo |= v == 3;
    saw_hi |= v == 9;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  const double mean = sum / n;
  EXPECT_NEAR(mean, 50.0, 1.5);  // ~3 sigma of the sample mean
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(milliseconds(5), 5'000'000);
  EXPECT_EQ(from_ms(0.6), 600'000);
  EXPECT_DOUBLE_EQ(to_ms(from_ms(12.5)), 12.5);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
}

}  // namespace
}  // namespace mra::sim
