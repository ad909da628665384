// Design ablation: the §4.6 optimizations (single-resource shortcut and
// early forwarding stop), measured through message counts and waiting time
// at a small (phi=4) and the largest (phi=80) request size.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Ablation: §4.6 optimizations, high load (rho=0.5).\n";

  struct Variant {
    const char* name;
    bool single_res;
    bool stop_forwarding;
  };
  const std::vector<Variant> variants = {
      {"none", false, false},
      {"single-res only", true, false},
      {"stop-forward only", false, true},
      {"both (default)", true, true},
  };
  const std::vector<int> phis = {4, 80};

  std::vector<scenario::ScenarioSpec> specs;
  for (int phi : phis) {
    for (const auto& v : variants) {
      auto spec =
          paper_config(algo::Algorithm::kLassWithLoan, phi, /*rho=*/0.5, opts);
      spec.system.opt_single_resource = v.single_res;
      spec.system.opt_stop_forwarding = v.stop_forwarding;
      specs.push_back(spec);
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, "ablation_optimizations");

  Table table({"phi", "optimizations", "msgs/CS", "use rate (%)",
               "mean wait (ms)"});
  std::size_t idx = 0;
  for (int phi : phis) {
    for (const auto& v : variants) {
      const auto& r = results[idx++];
      table.add_row({std::to_string(phi), v.name,
                     Table::fmt(r.messages_per_cs, 1),
                     Table::fmt(r.use_rate * 100.0, 1),
                     Table::fmt(r.waiting_mean_ms, 1)});
    }
  }
  emit(table, opts, "ablation_optimizations.csv");
  std::cout << "\nExpectation: both optimizations reduce msgs/CS without "
               "hurting use rate; single-res matters most at phi=4.\n";
  return 0;
}
