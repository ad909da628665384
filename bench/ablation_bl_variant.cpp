// Interpretation ablation: the Bouabdallah-Laforest control token can be
// released right after registration (the literal reading of the 2000 paper)
// or held until the requester gathered every resource token (the global-lock
// behaviour the evaluated system exhibits — see DESIGN.md). This bench
// quantifies the difference so the choice is transparent.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Ablation: BL control-token discipline (N=32, M=80).\n";

  const std::vector<int> phis = {1, 4, 16, 80};
  const std::vector<std::pair<const char*, double>> loads = {{"medium", 5.0},
                                                             {"high", 0.5}};

  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& [label, rho] : loads) {
    for (int phi : phis) {
      for (bool early : {false, true}) {
        auto spec = paper_config(algo::Algorithm::kBouabdallahLaforest, phi,
                                rho, opts);
        spec.system.bl_release_control_token_early = early;
        specs.push_back(spec);
      }
      // LASS reference for the same point.
      specs.push_back(
          paper_config(algo::Algorithm::kLassWithLoan, phi, rho, opts));
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, "ablation_bl_variant");

  Table table({"load", "phi", "BL (CT held)", "BL (CT early)",
               "LASS with loan", "use held/early/lass (%)"});
  std::size_t idx = 0;
  for (const auto& [label, rho] : loads) {
    for (int phi : phis) {
      const auto& held = results[idx++];
      const auto& early = results[idx++];
      const auto& lass = results[idx++];
      table.add_row(
          {label, std::to_string(phi),
           Table::fmt(held.waiting_mean_ms, 1) + " ms",
           Table::fmt(early.waiting_mean_ms, 1) + " ms",
           Table::fmt(lass.waiting_mean_ms, 1) + " ms",
           Table::fmt(held.use_rate * 100, 1) + " / " +
               Table::fmt(early.use_rate * 100, 1) + " / " +
               Table::fmt(lass.use_rate * 100, 1)});
    }
  }
  emit(table, opts, "ablation_bl_variant.csv");
  std::cout << "\nThe held variant reproduces the paper's global-lock "
               "behaviour; the early variant shows how much of BL's deficit "
               "is the lock discipline rather than the static schedule.\n";
  return 0;
}
