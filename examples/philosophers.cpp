// Drinking philosophers on a ring: the classic scenario behind the whole
// problem family (Dijkstra's dining, Chandy-Misra's drinking). Each adjacent
// pair shares one bottle; a philosopher drinks from a random subset of its
// two bottles. Runs the conflict-graph-aware Chandy-Misra algorithm (which
// *requires* that graph) and the paper's LASS (which does not) on the same
// ring and compares messages and waits.
#include <functional>
#include <iostream>
#include <vector>

#include "algo/chandy_misra.hpp"
#include "algo/factory.hpp"
#include "algo/lass/node.hpp"
#include "metrics/stats.hpp"
#include "net/network.hpp"

using namespace mra;

namespace {

constexpr int kPhilosophers = 10;  // ring of 10, one bottle per edge

// Bottle r joins philosophers r and (r+1) % n.
std::vector<std::pair<SiteId, SiteId>> ring_sharers(int n) {
  std::vector<std::pair<SiteId, SiteId>> sharers;
  sharers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sharers.emplace_back(static_cast<SiteId>(i),
                         static_cast<SiteId>((i + 1) % n));
  }
  return sharers;
}

ResourceSet pick_bottles(SiteId s, sim::Rng& rng) {
  // Incident bottles of philosopher s: s-1 (left) and s (right).
  const ResourceId left =
      static_cast<ResourceId>((s + kPhilosophers - 1) % kPhilosophers);
  const ResourceId right = static_cast<ResourceId>(s);
  ResourceSet rs(kPhilosophers);
  switch (rng.uniform_int(0, 2)) {
    case 0: rs.insert(left); break;
    case 1: rs.insert(right); break;
    default:
      rs.insert(left);
      rs.insert(right);
  }
  return rs;
}

struct RunStats {
  metrics::RunningStats wait_ms;
  std::uint64_t messages = 0;
  double sim_ms = 0.0;
};

template <typename MakeNodes>
RunStats run(const char* label, MakeNodes make_nodes) {
  sim::Simulator sim;
  net::Network net(sim, net::make_fixed_latency(sim::from_ms(0.6)), 5);
  auto nodes = make_nodes();
  for (auto& n : nodes) net.add_node(*n);
  net.start();

  RunStats stats;
  sim::Rng rng(2024);
  std::vector<int> drinks_left(kPhilosophers, 60);
  std::vector<sim::SimTime> issued(kPhilosophers, 0);

  std::function<void(SiteId)> thirsty = [&](SiteId s) {
    if (drinks_left[static_cast<std::size_t>(s)]-- <= 0) return;
    issued[static_cast<std::size_t>(s)] = sim.now();
    nodes[static_cast<std::size_t>(s)]->request(pick_bottles(s, rng));
  };

  for (SiteId s = 0; s < kPhilosophers; ++s) {
    nodes[static_cast<std::size_t>(s)]->set_grant_callback([&, s](RequestId) {
      stats.wait_ms.add(sim::to_ms(sim.now() - issued[static_cast<std::size_t>(s)]));
      sim.schedule_in(sim::from_ms(5), [&, s]() {
        nodes[static_cast<std::size_t>(s)]->release();
        sim.schedule_in(sim::from_ms(3), [&, s]() { thirsty(s); });
      });
    });
    sim.schedule_in(sim::from_ms(s % 3), [&, s]() { thirsty(s); });
  }

  sim.run();
  stats.messages = net.total_messages();
  stats.sim_ms = sim::to_ms(sim.now());
  std::cout << "  " << label << ": " << stats.wait_ms.count()
            << " drinks, mean wait " << stats.wait_ms.mean() << " ms, "
            << stats.messages << " messages, finished at " << stats.sim_ms
            << " ms\n";
  return stats;
}

}  // namespace

int main() {
  std::cout << "Drinking philosophers, ring of " << kPhilosophers
            << " (one bottle per edge, 60 drinks each):\n";

  run("Chandy-Misra (conflict graph known)", []() {
    algo::ChandyMisraConfig cfg;
    cfg.num_sites = kPhilosophers;
    cfg.sharers = ring_sharers(kPhilosophers);
    std::vector<std::unique_ptr<AllocatorNode>> nodes;
    for (int i = 0; i < kPhilosophers; ++i) {
      nodes.push_back(std::make_unique<algo::ChandyMisraNode>(cfg));
    }
    return nodes;
  });

  algo::lass::LassConfig cfg;
  cfg.num_sites = kPhilosophers;
  cfg.num_resources = kPhilosophers;
  cfg.enable_loan = true;
  algo::lass::LassContext lass(cfg);  // shared by the sites; outlives them
  run("LASS with loan (no conflict-graph knowledge)", [&lass]() {
    std::vector<std::unique_ptr<AllocatorNode>> nodes;
    for (int i = 0; i < kPhilosophers; ++i) {
      nodes.push_back(std::make_unique<algo::lass::LassNode>(lass));
    }
    return nodes;
  });

  std::cout << "\nBoth solve the same instance; Chandy-Misra exploits the "
               "a-priori conflict graph, LASS needs none (the paper's "
               "selling point) at a modest message overhead.\n";
  return 0;
}
