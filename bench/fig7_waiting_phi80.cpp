// Figure 7 (a, b): average waiting time by request size at φ = 80 (six size
// buckets — the paper plots bars for sizes 1, 17, 33, 49, 65, 80) for
// Bouabdallah-Laforest and both LASS variants, medium and high load.
// Claims to check: BL's waiting barely depends on size; LASS penalises small
// requests (the counter of a hot resource races ahead), and wins overall.
#include <iostream>

#include "common/bench_util.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

namespace {

const std::vector<algo::Algorithm> kSeries = {
    algo::Algorithm::kBouabdallahLaforest,
    algo::Algorithm::kLassWithoutLoan,
    algo::Algorithm::kLassWithLoan,
};

// Bucket labels as in the paper's legend (φ=80, the runner's 6 buckets of
// ~13.3 each).
const std::vector<std::string> kBucketLabels = {
    "size 1-13", "size 14-27", "size 28-40", "size 41-53", "size 54-67",
    "size 68-80"};

void run_load(const char* label, double rho, const BenchOptions& opts,
              const std::string& csv) {
  std::vector<scenario::ScenarioSpec> specs;
  for (algo::Algorithm alg : kSeries) {
    specs.push_back(paper_config(alg, /*phi=*/80, rho, opts));
  }
  const auto results =
      run_sweep_with_progress(specs, opts, std::string("fig7-") + label);

  std::cout << "\n=== Figure 7 — waiting time by request size, phi=80, "
            << label << " load (rho=" << rho << ") ===\n";
  std::vector<std::string> header = {"algorithm", "overall"};
  for (const auto& b : kBucketLabels) header.push_back(b);
  Table table(header);
  for (const auto& r : results) {
    std::vector<std::string> row = {r.algorithm,
                                    Table::fmt(r.waiting_mean_ms, 1)};
    for (const auto& bucket : r.waiting_by_size) {
      row.push_back(Table::fmt(bucket.mean_ms, 1) + " (sd " +
                    Table::fmt(bucket.stddev_ms, 0) + ")");
    }
    table.add_row(row);
  }
  emit(table, opts, csv);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Reproduces paper Figure 7: waiting time per request size "
               "(phi=80).\n";
  run_load("medium", 5.0, opts, "fig7a_medium_load.csv");
  run_load("high", 0.5, opts, "fig7b_high_load.csv");
  return 0;
}
