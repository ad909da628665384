// §6 future work: "it would be interesting to evaluate our algorithm on a
// hierarchical physical topology such as Clouds. Indeed, the lack of global
// lock of our algorithm would avoid useless communication between two
// distant geographic sites."
//
// Two clusters of 16 sites; intra-cluster latency 0.6 ms (the paper's γ),
// inter-cluster latency swept 2..50 ms. The control-token algorithms must
// shuttle the global lock across the WAN on every request, conflicting or
// not; LASS pays the WAN price only for genuinely cross-cluster conflicts.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Future work (§6): two-cluster Cloud topology, phi=4, "
               "high load, N=32 (2 x 16), M=80, local gamma=0.6 ms.\n";

  const std::vector<double> wan_ms = {0.6, 2.0, 5.0, 10.0, 25.0, 50.0};
  const std::vector<algo::Algorithm> series = {
      algo::Algorithm::kBouabdallahLaforest,
      algo::Algorithm::kLassWithoutLoan,
      algo::Algorithm::kLassWithLoan,
  };

  std::vector<scenario::ScenarioSpec> specs;
  for (double wan : wan_ms) {
    for (auto alg : series) {
      auto spec = paper_config(alg, /*phi=*/4, /*rho=*/0.5, opts);
      spec.system.hierarchical_clusters = 2;
      spec.system.hierarchical_remote_latency = sim::from_ms(wan);
      specs.push_back(spec);
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, "future_hierarchical");

  Table table({"WAN latency (ms)", "BL wait (ms)", "no-loan wait (ms)",
               "loan wait (ms)", "BL/LASS", "use BL/loan (%)"});
  std::size_t idx = 0;
  for (double wan : wan_ms) {
    const auto& bl = results[idx++];
    const auto& noloan = results[idx++];
    const auto& loan = results[idx++];
    table.add_row(
        {Table::fmt(wan, 1), Table::fmt(bl.waiting_mean_ms, 1),
         Table::fmt(noloan.waiting_mean_ms, 1),
         Table::fmt(loan.waiting_mean_ms, 1),
         Table::fmt(loan.waiting_mean_ms > 0
                        ? bl.waiting_mean_ms / loan.waiting_mean_ms
                        : 0.0,
                    2) +
             "x",
         Table::fmt(bl.use_rate * 100, 1) + " / " +
             Table::fmt(loan.use_rate * 100, 1)});
  }
  emit(table, opts, "future_hierarchical.csv");
  std::cout << "\nExpectation (the paper's conjecture): the BL/LASS gap "
               "widens as the WAN latency grows — the global lock crosses "
               "the WAN for every request.\n";
  return 0;
}
