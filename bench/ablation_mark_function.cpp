// Design ablation: the scheduling-policy function A (§3.3.2) is a parameter
// of the algorithm. Compares the paper's choice (average of non-zero
// counters) against max, sum and min-nonzero under both loads.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Ablation: scheduling function A (phi=16, N=32, M=80).\n";

  const std::vector<MarkPolicy> policies = {
      MarkPolicy::kAverageNonZero, MarkPolicy::kMaxValue,
      MarkPolicy::kSumNonZero, MarkPolicy::kMinNonZero};
  const std::vector<std::pair<const char*, double>> loads = {{"medium", 5.0},
                                                             {"high", 0.5}};

  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& [label, rho] : loads) {
    for (MarkPolicy p : policies) {
      auto spec =
          paper_config(algo::Algorithm::kLassWithLoan, /*phi=*/16, rho, opts);
      spec.system.mark_policy = p;
      specs.push_back(spec);
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, "ablation_mark_function");

  Table table({"load", "A", "use rate (%)", "mean wait (ms)", "stddev (ms)"});
  std::size_t idx = 0;
  for (const auto& [label, rho] : loads) {
    for (MarkPolicy p : policies) {
      const auto& r = results[idx++];
      table.add_row({label, to_string(p), Table::fmt(r.use_rate * 100.0, 1),
                     Table::fmt(r.waiting_mean_ms, 1),
                     Table::fmt(r.waiting_stddev_ms, 1)});
    }
  }
  emit(table, opts, "ablation_mark_function.csv");
  std::cout << "\nNote: sum penalises large requests, min-nonzero favours "
               "them; the paper's avg-nonzero balances both.\n";
  return 0;
}
