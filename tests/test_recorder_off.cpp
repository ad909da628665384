// The observer seam is free when nothing is attached (DESIGN.md §12), checked
// deterministically instead of through a wall-clock rate:
//   - once warm, the network's send/deliver path makes no global heap
//     allocation, observer or not: messages come from the pool, and the
//     event queue and the per-kind statistics reuse their storage;
//   - attaching an observer that ignores everything changes no outcome of a
//     registry scenario under any factory algorithm: the same results, the
//     same event count and the same message count;
//   - building and starting a closed-loop scenario runner allocates nothing
//     per site: its drivers sit in one array and share one picker.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "algo/factory.hpp"
#include "check/event.hpp"
#include "counting_new.hpp"
#include "experiment/experiment.hpp"
#include "net/latency.hpp"
#include "net/message_pool.hpp"
#include "net/network.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/simulator.hpp"

namespace mra {
namespace {

/// Sees every event and keeps none of it.
class QuietObserver final : public check::Observer {
 public:
  void on_event(const check::Event& /*event*/) override {}
};

struct PingMsg final : net::Message {
  std::uint64_t hop = 0;
  std::uint64_t salt = 0;
  [[nodiscard]] std::string_view kind() const override { return "Ping"; }
};

/// Forwards every ping it receives. The stride rotates so the traffic
/// spreads over many (src, dst) links instead of one FIFO watermark.
class PingSite final : public net::Node {
 public:
  void on_message(SiteId /*from*/, const net::Message& msg) override {
    const auto& ping = static_cast<const PingMsg&>(msg);
    auto next = std::make_unique<PingMsg>();
    next->hop = ping.hop + 1;
    next->salt = ping.salt;
    const auto stride = static_cast<SiteId>(1 + (ping.hop + ping.salt) % 7);
    const auto dst = static_cast<SiteId>((id() + stride) % kSites);
    network()->send(id(), dst, std::move(next));
  }

  static constexpr int kSites = 64;
};

TEST(RecorderOff, PooledPingRingAllocatesNothingOnceWarm) {
  if (!net::message_pool_stats().enabled) {
    GTEST_SKIP() << "message pool disabled (sanitizer build)";
  }
  for (const bool observed : {false, true}) {
    SCOPED_TRACE(observed ? "quiet observer attached" : "no observer");
    sim::Simulator sim;
    net::Network net(sim, net::make_fixed_latency(sim::microseconds(600)),
                     /*seed=*/1);
    std::vector<PingSite> sites(PingSite::kSites);
    for (PingSite& site : sites) net.add_node(site);
    QuietObserver quiet;
    if (observed) {
      sim.set_observer(&quiet);
      net.set_observer(&quiet);
    }
    net.start();
    for (int i = 0; i < PingSite::kSites; ++i) {
      auto ping = std::make_unique<PingMsg>();
      ping->salt = static_cast<std::uint64_t>(i);
      net.send(static_cast<SiteId>(i),
               static_cast<SiteId>((i + 1) % PingSite::kSites),
               std::move(ping));
    }

    // Warm-up: the pool, the queue slab and the per-kind statistics map
    // reach their steady size.
    sim.run(sim::from_ms(100));
    const std::uint64_t sent_before = net.total_messages();
    const std::uint64_t allocations =
        test::allocations_during([&]() { sim.run(sim::from_ms(2000)); });
    EXPECT_GE(net.total_messages() - sent_before, 100'000u);
    EXPECT_EQ(allocations, 0u);
  }
}

/// Allocations made while building a closed-loop ScenarioRunner for the
/// paper's workload over a started `sites`-site LASS system and starting it.
std::uint64_t runner_setup_allocations(int sites) {
  scenario::ScenarioSpec spec = scenario::find_scenario("paper-phi4");
  spec.system.num_sites = sites;
  spec.system.algorithm = algo::Algorithm::kLassWithLoan;
  auto system = algo::AllocationSystem::create(spec.system);
  system->start();
  return test::allocations_during([&]() {
    scenario::ScenarioRunner runner(*system, spec, spec.system.seed);
    runner.start();
  });
}

TEST(RecorderOff, ScenarioRunnerSetupAllocatesNothingPerSite) {
  const std::uint64_t small = runner_setup_allocations(64);
  const std::uint64_t large = runner_setup_allocations(4096);
  // start() schedules one birth per site, so the event queue's slot slab
  // and heap each double at most log2(4096 / 64) = 6 more times.
  constexpr std::uint64_t kQueueGrowth = 2 * 6;
  EXPECT_LE(large, small + kQueueGrowth) << "64 sites: " << small;
}

struct Outcome {
  experiment::ExperimentResult result;
  std::uint64_t events = 0;
};

/// run_scenario's wiring, with `observer` (may be null) on the simulator,
/// the network and every node, keeping the simulator's event count.
Outcome run_with(const scenario::ScenarioSpec& spec, algo::Algorithm algorithm,
                 check::Observer* observer) {
  algo::SystemConfig sys = spec.system;
  sys.algorithm = algorithm;
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  if (observer != nullptr) {
    system->simulator().set_observer(observer);
    system->network().set_observer(observer);
    for (SiteId i = 0; i < sys.num_sites; ++i) {
      system->node(i).set_observer(observer);
    }
  }
  scenario::ScenarioRunner runner(*system, spec, sys.seed);
  runner.start();
  system->simulator().run(spec.warmup + spec.measure);
  return {experiment::summarize(*system, runner.collector()),
          system->simulator().events_processed()};
}

TEST(RecorderOff, QuietObserverChangesNoOutcome) {
  scenario::ScenarioSpec spec = scenario::find_scenario("zipf-hot");
  spec.warmup = sim::from_ms(200);
  spec.measure = sim::from_ms(800);
  for (const algo::Algorithm alg : algo::all_algorithms()) {
    SCOPED_TRACE(algo::to_string(alg));
    const Outcome plain = run_with(spec, alg, nullptr);
    QuietObserver quiet;
    const Outcome observed = run_with(spec, alg, &quiet);
    EXPECT_GT(plain.result.requests_completed, 0u);
    EXPECT_EQ(observed.events, plain.events);
    EXPECT_EQ(observed.result.messages, plain.result.messages);
    EXPECT_EQ(observed.result.bytes, plain.result.bytes);
    EXPECT_EQ(observed.result.messages_by_kind, plain.result.messages_by_kind);
    EXPECT_EQ(observed.result.requests_completed,
              plain.result.requests_completed);
    EXPECT_EQ(observed.result.use_rate, plain.result.use_rate);  // bitwise
    EXPECT_EQ(observed.result.waiting_mean_ms, plain.result.waiting_mean_ms);
    EXPECT_EQ(observed.result.waiting_p99_ms, plain.result.waiting_p99_ms);
    EXPECT_EQ(observed.result.loans_used, plain.result.loans_used);
  }
}

}  // namespace
}  // namespace mra
