// Figure 6 (a, b): average waiting time (ms) with stddev at φ = 4 for
// Bouabdallah-Laforest, LASS without loan and LASS with loan, under medium
// and high load. The paper reports ≈8x (medium) and ≈11x (high) lower
// waiting for LASS, and ≈20% further gain from the loan at high load.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::fmt_estimate;
using experiment::Table;

namespace {

const std::vector<algo::Algorithm> kSeries = {
    algo::Algorithm::kBouabdallahLaforest,
    algo::Algorithm::kLassWithoutLoan,
    algo::Algorithm::kLassWithLoan,
};

void run_load(const char* label, double rho, const BenchOptions& opts,
              const std::string& csv,
              std::vector<experiment::LabeledResult>& all_results) {
  std::vector<scenario::ScenarioSpec> specs;
  for (algo::Algorithm alg : kSeries) {
    specs.push_back(paper_config(alg, /*phi=*/4, rho, opts));
  }
  const auto results =
      run_sweep_with_progress(specs, opts, std::string("fig6-") + label);
  for (const auto& r : results) {
    all_results.push_back(experiment::LabeledResult{label, r});
  }

  std::cout << "\n=== Figure 6 — average waiting time, phi=4, " << label
            << " load (rho=" << rho << ") ===\n";
  Table table({"algorithm", "mean wait (ms)", "stddev (ms)", "p50", "p95",
               "p99", "completed", "vs BL"});
  const double bl = results[0].waiting_mean_ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double factor = r.waiting_mean_ms > 0.0 ? bl / r.waiting_mean_ms : 0.0;
    table.add_row({r.algorithm, Table::fmt(r.waiting_mean_ms, 1),
                   Table::fmt(r.waiting_stddev_ms, 1),
                   Table::fmt(r.waiting_p50_ms, 1),
                   Table::fmt(r.waiting_p95_ms, 1),
                   Table::fmt(r.waiting_p99_ms, 1),
                   std::to_string(r.requests_completed),
                   i == 0 ? "1.00x" : Table::fmt(factor, 2) + "x lower"});
  }
  emit(table, opts, csv);
}

/// Replicated flavor (--reps N >= 2): mean ± 95% CI over independent seed
/// substreams; tail quantiles come from the pooled per-rep samples.
void run_load_replicated(
    const char* label, double rho, const BenchOptions& opts,
    const std::string& csv,
    std::vector<experiment::LabeledReplicatedResult>& all_results) {
  std::vector<scenario::ScenarioSpec> specs;
  for (algo::Algorithm alg : kSeries) {
    specs.push_back(paper_config(alg, /*phi=*/4, rho, opts));
  }
  const auto results = run_replicated_sweep_with_progress(
      specs, opts, std::string("fig6-") + label);
  for (const auto& r : results) {
    all_results.push_back(experiment::LabeledReplicatedResult{label, r});
  }

  std::cout << "\n=== Figure 6 — average waiting time ± 95% CI, phi=4, "
            << label << " load (rho=" << rho << ", reps=" << opts.reps
            << ") ===\n";
  Table table({"algorithm", "mean wait (ms)", "stddev (ms)", "p50", "p95",
               "p99", "completed", "vs BL"});
  const double bl = results[0].waiting_mean_ms.mean;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double factor =
        r.waiting_mean_ms.mean > 0.0 ? bl / r.waiting_mean_ms.mean : 0.0;
    table.add_row({r.algorithm, fmt_estimate(r.waiting_mean_ms, 1),
                   Table::fmt(r.waiting_pooled.stddev(), 1),
                   Table::fmt(r.waiting_p50_ms, 1),
                   Table::fmt(r.waiting_p95_ms, 1),
                   Table::fmt(r.waiting_p99_ms, 1),
                   std::to_string(r.requests_completed),
                   i == 0 ? "1.00x" : Table::fmt(factor, 2) + "x lower"});
  }
  emit(table, opts, csv);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv, /*supports_json=*/true);
  std::cout << "Reproduces paper Figure 6: average waiting time (phi=4).\n";
  if (opts.reps > 1) {
    std::vector<experiment::LabeledReplicatedResult> all_results;
    run_load_replicated("medium", 5.0, opts, "fig6a_medium_load.csv",
                        all_results);
    run_load_replicated("high", 0.5, opts, "fig6b_high_load.csv", all_results);
    emit_json("fig6_waiting_phi4", all_results, opts);
  } else {
    std::vector<experiment::LabeledResult> all_results;
    run_load("medium", 5.0, opts, "fig6a_medium_load.csv", all_results);
    run_load("high", 0.5, opts, "fig6b_high_load.csv", all_results);
    emit_json("fig6_waiting_phi4", all_results, opts);
  }
  return 0;
}
