// Message complexity (§1/§2 discussion): messages per critical section for
// every algorithm, as a function of the system size N and of the request
// size φ. Contrasts tree routing (Naimi-Tréhel / LASS: O(log N)) against the
// broadcast baseline (Maddi: O(N)) and the control-token serialization of
// Bouabdallah-Laforest.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

namespace {

const std::vector<algo::Algorithm> kSeries = {
    algo::Algorithm::kIncremental, algo::Algorithm::kBouabdallahLaforest,
    algo::Algorithm::kLassWithoutLoan, algo::Algorithm::kLassWithLoan,
    algo::Algorithm::kMaddi,
};

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Messages per critical section (medium load).\n";

  // Sweep N at fixed phi.
  {
    const std::vector<int> ns = {8, 16, 32, 64};
    std::vector<scenario::ScenarioSpec> specs;
    for (int n : ns) {
      for (algo::Algorithm alg : kSeries) {
        auto spec = paper_config(alg, /*phi=*/4, /*rho=*/5.0, opts);
        spec.system.num_sites = n;
        specs.push_back(spec);
      }
    }
    const auto results =
        run_sweep_with_progress(specs, opts, "message_complexity");
    std::cout << "\n--- vs system size N (phi=4, M=80) ---\n";
    std::vector<std::string> header = {"N"};
    for (algo::Algorithm a : kSeries) header.emplace_back(algo::to_string(a));
    Table table(header);
    std::size_t idx = 0;
    for (int n : ns) {
      std::vector<std::string> row = {std::to_string(n)};
      for (std::size_t s = 0; s < kSeries.size(); ++s) {
        row.push_back(Table::fmt(results[idx++].messages_per_cs, 1));
      }
      table.add_row(row);
    }
    emit(table, opts, "message_complexity_vs_n.csv");
  }

  // Sweep phi at fixed N.
  {
    const std::vector<int> phis = {1, 4, 16, 40, 80};
    std::vector<scenario::ScenarioSpec> specs;
    for (int phi : phis) {
      for (algo::Algorithm alg : kSeries) {
        specs.push_back(paper_config(alg, phi, /*rho=*/5.0, opts));
      }
    }
    const auto results =
        run_sweep_with_progress(specs, opts, "message_complexity");
    std::cout << "\n--- vs request size phi (N=32, M=80) ---\n";
    std::vector<std::string> header = {"phi"};
    for (algo::Algorithm a : kSeries) header.emplace_back(algo::to_string(a));
    Table table(header);
    std::size_t idx = 0;
    for (int phi : phis) {
      std::vector<std::string> row = {std::to_string(phi)};
      for (std::size_t s = 0; s < kSeries.size(); ++s) {
        row.push_back(Table::fmt(results[idx++].messages_per_cs, 1));
      }
      table.add_row(row);
    }
    emit(table, opts, "message_complexity_vs_phi.csv");
  }

  std::cout << "\nExpectation: Maddi grows linearly with N; LASS and BL stay "
               "flat-ish (tree routing); Incremental grows with phi (one "
               "lock round per resource).\n";
  return 0;
}
