// Figure 5 (a, b): resource-use rate vs maximum request size φ, for medium
// (ρ = 5) and high (ρ = 0.5) load, N = 32, M = 80. Five series: Incremental,
// Bouabdallah-Laforest, LASS without loan, LASS with loan, shared memory.
// Also prints the §5.2 claim row: LASS/BL use-rate ratio per φ.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::ExperimentResult;
using experiment::fmt_estimate;
using experiment::Table;

namespace {

const std::vector<int> kPhis = {1, 2, 4, 8, 12, 16, 20, 28, 40, 56, 80};

const std::vector<algo::Algorithm> kSeries = {
    algo::Algorithm::kIncremental,
    algo::Algorithm::kBouabdallahLaforest,
    algo::Algorithm::kLassWithoutLoan,
    algo::Algorithm::kLassWithLoan,
    algo::Algorithm::kCentralSharedMemory,
};

void run_load(const char* label, double rho, const BenchOptions& opts,
              const std::string& csv,
              std::vector<experiment::LabeledResult>& all_results) {
  std::vector<scenario::ScenarioSpec> specs;
  for (int phi : kPhis) {
    for (algo::Algorithm alg : kSeries) {
      specs.push_back(paper_config(alg, phi, rho, opts));
    }
  }
  const auto results =
      run_sweep_with_progress(specs, opts, std::string("fig5-") + label);
  for (const auto& r : results) {
    all_results.push_back(experiment::LabeledResult{label, r});
  }

  std::cout << "\n=== Figure 5 — resource use rate (%), " << label
            << " load (rho=" << rho << ", N=32, M=80) ===\n";
  Table table({"phi", "Incremental", "Bouabdallah-Laforest", "Without loan",
               "With loan", "in shared memory", "best-LASS / BL"});
  std::size_t idx = 0;
  for (int phi : kPhis) {
    std::vector<double> rates;
    for (std::size_t s = 0; s < kSeries.size(); ++s) {
      rates.push_back(results[idx++].use_rate * 100.0);
    }
    const double best_lass = std::max(rates[2], rates[3]);
    const double ratio = rates[1] > 0.0 ? best_lass / rates[1] : 0.0;
    table.add_row({std::to_string(phi), Table::fmt(rates[0], 1),
                   Table::fmt(rates[1], 1), Table::fmt(rates[2], 1),
                   Table::fmt(rates[3], 1), Table::fmt(rates[4], 1),
                   Table::fmt(ratio, 2) + "x"});
  }
  emit(table, opts, csv);
}

/// Replicated flavor (--reps N >= 2): every cell becomes mean ± 95% CI over
/// independent seed substreams; the ratio column compares the means.
void run_load_replicated(
    const char* label, double rho, const BenchOptions& opts,
    const std::string& csv,
    std::vector<experiment::LabeledReplicatedResult>& all_results) {
  std::vector<scenario::ScenarioSpec> specs;
  for (int phi : kPhis) {
    for (algo::Algorithm alg : kSeries) {
      specs.push_back(paper_config(alg, phi, rho, opts));
    }
  }
  const auto results = run_replicated_sweep_with_progress(
      specs, opts, std::string("fig5-") + label);
  for (const auto& r : results) {
    all_results.push_back(experiment::LabeledReplicatedResult{label, r});
  }

  std::cout << "\n=== Figure 5 — resource use rate (%) ± 95% CI, " << label
            << " load (rho=" << rho << ", N=32, M=80, reps=" << opts.reps
            << ") ===\n";
  Table table({"phi", "Incremental", "Bouabdallah-Laforest", "Without loan",
               "With loan", "in shared memory", "best-LASS / BL"});
  std::size_t idx = 0;
  for (int phi : kPhis) {
    std::vector<metrics::Estimate> rates;
    for (std::size_t s = 0; s < kSeries.size(); ++s) {
      metrics::Estimate e = results[idx++].use_rate;
      e.mean *= 100.0;
      e.ci95_half *= 100.0;
      rates.push_back(e);
    }
    const double best_lass = std::max(rates[2].mean, rates[3].mean);
    const double ratio = rates[1].mean > 0.0 ? best_lass / rates[1].mean : 0.0;
    table.add_row({std::to_string(phi), fmt_estimate(rates[0], 1),
                   fmt_estimate(rates[1], 1), fmt_estimate(rates[2], 1),
                   fmt_estimate(rates[3], 1), fmt_estimate(rates[4], 1),
                   Table::fmt(ratio, 2) + "x"});
  }
  emit(table, opts, csv);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv, /*supports_json=*/true);
  std::cout << "Reproduces paper Figure 5: impact of request size over "
               "resource use rate.\n";
  if (opts.reps > 1) {
    std::vector<experiment::LabeledReplicatedResult> all_results;
    run_load_replicated("medium", 5.0, opts, "fig5a_medium_load.csv",
                        all_results);
    run_load_replicated("high", 0.5, opts, "fig5b_high_load.csv", all_results);
    emit_json("fig5_use_rate", all_results, opts);
  } else {
    std::vector<experiment::LabeledResult> all_results;
    run_load("medium", 5.0, opts, "fig5a_medium_load.csv", all_results);
    run_load("high", 0.5, opts, "fig5b_high_load.csv", all_results);
    emit_json("fig5_use_rate", all_results, opts);
  }
  std::cout << "\nPaper claims to check: LASS curves track the shared-memory "
               "shape;\nuse-rate gain over BL grows as phi shrinks (paper: "
               "0.4x-20x);\nloan helps most for medium request sizes at high "
               "load.\n";
  return 0;
}
