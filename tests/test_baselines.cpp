// Baseline-specific behaviour: Bouabdallah-Laforest control-token variants,
// the central scheduler's policies, Maddi's broadcast pattern, Chandy-Misra
// on explicit conflict graphs, and the mark-function library.
#include <gtest/gtest.h>

#include <functional>

#include "algo/chandy_misra.hpp"
#include "core/mark.hpp"
#include "scenario/runner.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace mra {
namespace {

// --- Bouabdallah-Laforest ---------------------------------------------------

TEST(BouabdallahLaforest, EarlyCtReleaseOutperformsGlobalLock) {
  auto run = [](bool early) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = algo::Algorithm::kBouabdallahLaforest;
    spec.system.num_sites = 12;
    spec.system.num_resources = 20;
    spec.system.seed = 3;
    spec.system.bl_release_control_token_early = early;
    spec.workload = workload::high_load(4, 20);
    spec.warmup = sim::from_ms(200);
    spec.measure = sim::from_ms(4000);
    return scenario::run_scenario(spec, spec.system.algorithm);
  };
  const auto early = run(true);
  const auto held = run(false);
  EXPECT_GT(early.requests_completed, 50u);
  EXPECT_GT(held.requests_completed, 50u);
  // Registration-only release overlaps acquisitions -> strictly better.
  EXPECT_GT(early.use_rate, held.use_rate);
  EXPECT_LT(early.waiting_mean_ms, held.waiting_mean_ms);
}

TEST(BouabdallahLaforest, BothVariantsPassStress) {
  for (bool early : {false, true}) {
    // run_stress uses the factory default; drive variant via a one-off
    // experiment for the early case instead.
    scenario::ScenarioSpec spec;
    spec.system.algorithm = algo::Algorithm::kBouabdallahLaforest;
    spec.system.num_sites = 8;
    spec.system.num_resources = 6;
    spec.system.seed = 17;
    spec.system.bl_release_control_token_early = early;
    spec.workload = workload::high_load(6, 6);  // max conflicts
    spec.warmup = sim::from_ms(100);
    spec.measure = sim::from_ms(3000);
    const auto r = scenario::run_scenario(spec, spec.system.algorithm);
    EXPECT_GT(r.requests_completed, 50u) << "variant early=" << early;
  }
}

// --- Central scheduler -------------------------------------------------------

TEST(CentralScheduler, BackfillBeatsStrictFifo) {
  auto run = [](bool strict) {
    scenario::ScenarioSpec spec;
    spec.system.algorithm = algo::Algorithm::kCentralSharedMemory;
    spec.system.num_sites = 16;
    spec.system.num_resources = 24;
    spec.system.seed = 21;
    spec.system.central_strict_fifo = strict;
    spec.workload = workload::high_load(8, 24);
    spec.warmup = sim::from_ms(100);
    spec.measure = sim::from_ms(3000);
    return scenario::run_scenario(spec, spec.system.algorithm);
  };
  const auto backfill = run(false);
  const auto fifo = run(true);
  EXPECT_GT(backfill.use_rate, fifo.use_rate)
      << "in-order backfill must dominate head-of-line blocking";
}

TEST(CentralScheduler, StrictFifoPreservesOrderUnderConflict) {
  // With a single resource, grants must follow submission order exactly.
  algo::CentralConfig cfg;
  cfg.num_sites = 4;
  cfg.num_resources = 1;
  cfg.strict_fifo = true;
  sim::Simulator sim;
  algo::CentralCoordinator coord(cfg, sim);
  std::vector<std::unique_ptr<algo::CentralNode>> nodes;
  std::vector<SiteId> grant_order;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<algo::CentralNode>(cfg, coord));
    // CentralNode never touches the network; assign ids manually via a tiny
    // trick: submission order below identifies them.
  }
  ResourceSet r0(1, {0});
  for (int i = 0; i < 4; ++i) {
    auto* node = nodes[static_cast<std::size_t>(i)].get();
    node->set_grant_callback([&grant_order, i, node, &sim](RequestId) {
      grant_order.push_back(static_cast<SiteId>(i));
      sim.schedule_in(10, [node]() { node->release(); });
    });
  }
  // Submit in reverse id order to make FIFO != id order.
  for (int i = 3; i >= 0; --i) {
    nodes[static_cast<std::size_t>(i)]->request(r0);
  }
  sim.run();
  EXPECT_EQ(grant_order, (std::vector<SiteId>{3, 2, 1, 0}));
}

// --- Maddi -------------------------------------------------------------------

TEST(Maddi, MessageCountScalesWithN) {
  auto msgs_per_cs = [](int n) {
    test::StressOptions opt;
    opt.algorithm = algo::Algorithm::kMaddi;
    opt.num_sites = n;
    opt.num_resources = 12;
    opt.phi = 3;
    opt.requests_per_site = 20;
    opt.seed = 9;
    const auto out = test::run_stress(opt);
    return static_cast<double>(out.messages) /
           static_cast<double>(out.completed);
  };
  const double small = msgs_per_cs(6);
  const double large = msgs_per_cs(24);
  // Broadcast: every request costs at least N-1 messages.
  EXPECT_GE(small, 5.0);
  EXPECT_GT(large, small * 2.5);
}

// --- Chandy-Misra -------------------------------------------------------------

struct CmRing {
  sim::Simulator sim;
  net::Network net{sim, net::make_fixed_latency(sim::from_ms(0.5)), 7};
  std::vector<std::unique_ptr<algo::ChandyMisraNode>> nodes;
  algo::ChandyMisraConfig cfg;

  explicit CmRing(int n) {
    cfg.num_sites = n;
    for (int i = 0; i < n; ++i) {
      cfg.sharers.emplace_back(static_cast<SiteId>(i),
                               static_cast<SiteId>((i + 1) % n));
    }
    for (int i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<algo::ChandyMisraNode>(cfg));
      net.add_node(*nodes.back());
    }
    net.start();
  }
};

TEST(ChandyMisra, RingDrinkingSafetyAndLiveness) {
  const int n = 8;
  CmRing ring(n);
  sim::Rng rng(33);
  ResourceSet busy(n);
  std::vector<int> remaining(static_cast<std::size_t>(n), 25);
  int completed = 0;

  std::function<void(SiteId)> thirsty = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    const ResourceId left = static_cast<ResourceId>((s + n - 1) % n);
    const ResourceId right = static_cast<ResourceId>(s);
    ResourceSet want(n);
    switch (rng.uniform_int(0, 2)) {
      case 0: want.insert(left); break;
      case 1: want.insert(right); break;
      default: want.insert(left); want.insert(right);
    }
    ring.nodes[static_cast<std::size_t>(s)]->request(want);
  };

  for (SiteId s = 0; s < n; ++s) {
    auto* node = ring.nodes[static_cast<std::size_t>(s)].get();
    node->set_grant_callback([&, s, node](RequestId) {
      const ResourceSet& rs = node->current_request();
      EXPECT_FALSE(rs.intersects(busy)) << "two philosophers share a bottle";
      busy |= rs;
      ring.sim.schedule_in(sim::from_ms(1), [&, node]() {
        busy -= node->current_request();
        ++completed;
        node->release();
      });
    });
    ring.sim.schedule_in(
        static_cast<sim::SimDuration>(rng.uniform_int(0, 1'000'000)),
        [&, s]() { thirsty(s); });
  }
  // Refill: after each release, go thirsty again (drive from a poller).
  std::function<void()> refill = [&]() {
    for (SiteId s = 0; s < n; ++s) {
      auto* node = ring.nodes[static_cast<std::size_t>(s)].get();
      if (node->state() == ProcessState::kIdle &&
          remaining[static_cast<std::size_t>(s)] > 0) {
        thirsty(s);
      }
    }
    if (completed < 25 * n) ring.sim.schedule_in(sim::from_ms(2), refill);
  };
  ring.sim.schedule_in(sim::from_ms(2), refill);

  ring.sim.run();
  EXPECT_EQ(completed, 25 * n);
}

TEST(ChandyMisra, RejectsNonIncidentRequest) {
  CmRing ring(4);
  ResourceSet far(4);
  far.insert(2);  // resource 2 joins sites 2 and 3, not site 0
  EXPECT_THROW(ring.nodes[0]->request(far), std::invalid_argument);
}

TEST(ChandyMisra, InitialBottlePlacementAtLowerId) {
  CmRing ring(4);
  // Resource i is shared by (i, i+1): lower id holds the bottle initially.
  EXPECT_TRUE(ring.nodes[0]->holds_bottle(0));
  EXPECT_FALSE(ring.nodes[1]->holds_bottle(0));
  // Edge (3, 0): site 0 is the lower id.
  EXPECT_TRUE(ring.nodes[0]->holds_bottle(3));
  EXPECT_FALSE(ring.nodes[3]->holds_bottle(3));
}

TEST(ChandyMisra, BadConfigThrows) {
  algo::ChandyMisraConfig cfg;
  cfg.num_sites = 3;
  cfg.sharers = {{0, 0}};  // self-loop
  EXPECT_THROW(algo::ChandyMisraNode{cfg}, std::invalid_argument);
  cfg.sharers = {{0, 5}};  // out of range
  EXPECT_THROW(algo::ChandyMisraNode{cfg}, std::invalid_argument);
}

// --- mark functions -----------------------------------------------------------

TEST(MarkFunctions, AverageNonZeroMatchesPaper) {
  // A = average of the non-null counter values (§5).
  EXPECT_DOUBLE_EQ(average_non_zero({0, 4, 0, 8}), 6.0);
  EXPECT_DOUBLE_EQ(average_non_zero({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(average_non_zero({5}), 5.0);
}

TEST(MarkFunctions, PolicyLibrary) {
  const CounterVector v = {0, 3, 9, 0, 6};
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kAverageNonZero)(v), 6.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kMaxValue)(v), 9.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kSumNonZero)(v), 18.0);
  EXPECT_DOUBLE_EQ(make_mark_function(MarkPolicy::kMinNonZero)(v), 3.0);
}

TEST(MarkFunctions, RequestPrecedesTotalOrder) {
  EXPECT_TRUE(request_precedes(1.0, 5, 2.0, 1));
  EXPECT_TRUE(request_precedes(2.0, 1, 2.0, 5));   // site breaks ties
  EXPECT_FALSE(request_precedes(2.0, 5, 2.0, 5));  // irreflexive
}

}  // namespace
}  // namespace mra
