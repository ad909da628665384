// Unit tests for the discrete-event engine and RNG.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(10, [&]() { ++fired; });
  q.schedule(20, [&]() { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel is a no-op
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1, []() {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(5, []() {});
  q.schedule(9, []() {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, EmptyQueueReportsInfinity) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

// The old implementation remembered every cancelled id in a tombstone set
// that grew with total_scheduled(); the slab implementation recycles slots,
// so a million schedule/cancel cycles must not grow memory past the peak
// number of outstanding events.
TEST(EventQueue, CancelBoundedMemoryOverMillionEvents) {
  EventQueue q;
  std::vector<EventId> pending;
  for (int wave = 0; wave < 1000; ++wave) {
    for (int i = 0; i < 1000; ++i) {
      pending.push_back(
          q.schedule(static_cast<SimTime>(wave * 1000 + i), []() {}));
    }
    for (const EventId id : pending) EXPECT_TRUE(q.cancel(id));
    pending.clear();
  }
  EXPECT_EQ(q.total_scheduled(), 1'000'000u);
  EXPECT_EQ(q.size(), 0u);
  // Peak outstanding was 1000; the slab may hold a compaction slack on top
  // of that, but must be nowhere near the million-event total.
  EXPECT_LT(q.capacity(), 4096u);
}

// Same seed, same interleaving of schedule/cancel/pop -> bit-identical
// Fired sequence. Guards against any address- or hash-dependent ordering
// sneaking into the queue (the trace replay tests depend on this).
TEST(EventQueue, DeterministicFiredSequenceUnderInterleavedScheduleCancel) {
  auto run = [](std::uint64_t seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<std::pair<SimTime, int>> fired;
    std::vector<EventId> live;
    int tag = 0;
    for (int step = 0; step < 20000; ++step) {
      const auto op = rng.uniform_int(0, 9);
      if (op < 5) {
        const auto at = static_cast<SimTime>(rng.uniform_int(0, 5000));
        const int t = tag++;
        live.push_back(q.schedule(at, [&fired, at, t]() {
          fired.emplace_back(at, t);
        }));
      } else if (op < 7 && !live.empty()) {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        q.cancel(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
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
  // Fired times must be non-decreasing only per pop runs; at minimum the
  // same-seed sequences agree element-wise, which is the contract.
}

// A slot freed by pop() is recycled by the next schedule(); the stale id of
// the fired event must not be able to cancel the new tenant.
TEST(EventQueue, GenerationTagMakesStaleIdsHarmlessAfterSlotReuse) {
  EventQueue q;
  int fired = 0;
  const EventId first = q.schedule(10, [&]() { ++fired; });
  q.pop().callback();
  EXPECT_EQ(fired, 1);
  const EventId second = q.schedule(20, [&]() { ++fired; });
  EXPECT_NE(first, second);  // same slot, different generation
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  q.pop().callback();
  EXPECT_EQ(fired, 2);

  // Cancelled slots are recycled too: cancel, reschedule, stale-cancel.
  const EventId third = q.schedule(30, [&]() { ++fired; });
  EXPECT_TRUE(q.cancel(third));
  EXPECT_FALSE(q.cancel(third));
  const EventId fourth = q.schedule(40, [&]() { ++fired; });
  EXPECT_FALSE(q.cancel(third));
  EXPECT_TRUE(q.cancel(fourth));
  EXPECT_TRUE(q.empty());
}

// Scheduling order must survive heavy cancellation churn (which triggers
// internal compaction sweeps) for events at one instant.
TEST(EventQueue, SameInstantOrderSurvivesCancelChurn) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 500; ++i) {
    q.schedule(7, [&order, i]() { order.push_back(i); });
    // Interleave far-future events, cancelled immediately, to drive the
    // dead-entry ratio over the compaction threshold repeatedly.
    victims.push_back(q.schedule(1000 + i, []() {}));
    if (victims.size() >= 10) {
      for (const EventId id : victims) EXPECT_TRUE(q.cancel(id));
      victims.clear();
    }
  }
  for (const EventId id : victims) EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
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

// A callback may cancel an event queued for the *same* instant; the batch
// drain must honour that cancellation instead of firing a pre-popped event.
TEST(Simulator, SameInstantCancelFromCallbackPreventsFiring) {
  Simulator sim;
  std::vector<int> order;
  EventId doomed = 0;
  sim.schedule_in(10, [&]() {
    order.push_back(1);
    EXPECT_TRUE(sim.cancel(doomed));
  });
  doomed = sim.schedule_in(10, [&]() { order.push_back(2); });
  sim.schedule_in(10, [&]() { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
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

TEST(SimulatorCommuting, CancelReachesTheCurrentRoundAndTheQueue) {
  RecordingHook hook;
  Simulator sim;
  sim.set_commutation_hook(&hook);
  std::vector<int> log;
  EventId drawn = 0;
  EventId queued = 0;
  EventId fired = 0;
  fired = sim.schedule_in(10, 0, [&]() {
    log.push_back(1);
    // Scheduled for this instant: it stays queued for the next round.
    queued = sim.schedule_in(0, 1, [&]() { log.push_back(4); });
    sim.schedule_in(0, 2, [&]() { log.push_back(5); });
    sim.schedule_in(0, 3, [&]() { log.push_back(6); });
    // Already drawn into this round, not yet fired.
    EXPECT_TRUE(sim.cancel(drawn));
    EXPECT_FALSE(sim.cancel(drawn));
  });
  drawn = sim.schedule_in(10, 1, [&]() { log.push_back(2); });
  sim.schedule_in(10, 2, [&]() {
    log.push_back(3);
    EXPECT_FALSE(sim.cancel(fired)) << "already fired";
    EXPECT_TRUE(sim.cancel(queued)) << "still queued for the next round";
    EXPECT_FALSE(sim.cancel(queued));
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 3, 5, 6}));
  EXPECT_EQ(sim.events_processed(), 4u);
  EXPECT_TRUE(sim.idle());
  ASSERT_EQ(hook.rounds.size(), 2u);
  EXPECT_EQ(hook.rounds[0], (RecordingHook::Round{10, {0, 1, 2}}));
  EXPECT_EQ(hook.rounds[1], (RecordingHook::Round{10, {2, 3}}));
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
