#include "harness.hpp"

#include <functional>

#include "check/monitor.hpp"

namespace mra::test {

StressOutcome run_stress(const StressOptions& options) {
  algo::SystemConfig sys;
  sys.algorithm = options.algorithm;
  sys.num_sites = options.num_sites;
  sys.num_resources = options.num_resources;
  sys.seed = options.seed;
  auto system = algo::AllocationSystem::create(sys);
  system->start();
  auto& sim = system->simulator();
  sim.set_event_budget(50'000'000ULL);
  // SAFETY: the mutual-exclusion oracle sees every grant and release.
  check::Monitor monitor(check::MonitorConfig::safety_only(
      options.num_sites, options.num_resources));
  monitor.attach(*system);

  sim::Rng rng(options.seed * 7919 + 13);
  workload::WorkloadConfig wl;
  wl.num_resources = options.num_resources;
  wl.phi = options.phi;
  wl.rho = options.rho;
  wl.validate();
  workload::RequestGenerator gen(wl, rng.split());

  StressOutcome outcome;
  std::vector<int> remaining(static_cast<std::size_t>(options.num_sites),
                             options.requests_per_site);
  std::uint64_t in_cs = 0;

  std::function<void(SiteId)> issue = [&](SiteId s) {
    if (remaining[static_cast<std::size_t>(s)]-- <= 0) return;
    const int size = gen.draw_size();
    system->node(s).request(gen.draw_resources(size));
  };

  for (SiteId s = 0; s < options.num_sites; ++s) {
    auto& node = system->node(s);
    node.set_grant_callback([&, s](RequestId) {
      ++in_cs;
      outcome.max_concurrent_cs = std::max(outcome.max_concurrent_cs, in_cs);
      sim.schedule_in(options.cs_time, [&, s]() {
        --in_cs;
        ++outcome.completed;
        system->node(s).release();
        sim.schedule_in(
            static_cast<sim::SimDuration>(rng.uniform_int(
                0, static_cast<std::int64_t>(options.max_think))),
            [&, s]() { issue(s); });
      });
    });
    sim.schedule_in(static_cast<sim::SimDuration>(
                        rng.uniform_int(0, static_cast<std::int64_t>(
                                               options.max_think))),
                    [&, s]() { issue(s); });
  }

  sim.run();
  for (const check::Violation& v : monitor.violations()) {
    ADD_FAILURE() << v.oracle << " violated at t=" << v.at << ": "
                  << v.detail;
  }

  outcome.quiescent = sim.idle();
  outcome.all_idle = true;
  for (SiteId s = 0; s < options.num_sites; ++s) {
    if (system->node(s).state() != ProcessState::kIdle) {
      outcome.all_idle = false;
    }
  }
  outcome.messages = system->network().total_messages();
  outcome.end_time = sim.now();
  return outcome;
}

}  // namespace mra::test
