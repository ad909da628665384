// §6 future work: "it would be interesting to evaluate the impact of this
// threshold on other metrics". Sweeps the loan threshold (0 = loan disabled)
// across request-size regimes under high load and reports use rate, waiting
// time and loan traffic.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Ablation (paper §6 future work): loan threshold sweep, "
               "high load (rho=0.5), N=32, M=80.\n";

  const std::vector<int> thresholds = {0, 1, 2, 4, 8};
  const std::vector<int> phis = {4, 8, 16, 40, 80};

  std::vector<scenario::ScenarioSpec> specs;
  for (int phi : phis) {
    for (int thr : thresholds) {
      auto spec = paper_config(thr == 0 ? algo::Algorithm::kLassWithoutLoan
                                       : algo::Algorithm::kLassWithLoan,
                              phi, /*rho=*/0.5, opts);
      spec.system.loan_threshold = thr == 0 ? 1 : thr;
      specs.push_back(spec);
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, "ablation_loan_threshold");

  Table table({"phi", "threshold", "use rate (%)", "mean wait (ms)",
               "loans used", "loans failed"});
  std::size_t idx = 0;
  for (int phi : phis) {
    for (int thr : thresholds) {
      const auto& r = results[idx++];
      table.add_row({std::to_string(phi),
                     thr == 0 ? "off" : std::to_string(thr),
                     Table::fmt(r.use_rate * 100.0, 1),
                     Table::fmt(r.waiting_mean_ms, 1),
                     std::to_string(r.loans_used),
                     std::to_string(r.loans_failed)});
    }
  }
  emit(table, opts, "ablation_loan_threshold.csv");
  std::cout << "\nPaper claim to check: threshold 1 improves use rate for "
               "medium request sizes; gains flatten (or revert) as the "
               "threshold grows.\n";
  return 0;
}
