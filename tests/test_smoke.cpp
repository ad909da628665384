// End-to-end smoke: every algorithm completes a small workload with sane
// metrics. Deeper invariants live in the per-module test files.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"

namespace mra::experiment {
namespace {

class SmokeTest : public ::testing::TestWithParam<algo::Algorithm> {};

TEST_P(SmokeTest, CompletesSmallWorkload) {
  scenario::ScenarioSpec spec;
  spec.system.num_sites = 8;
  spec.system.num_resources = 12;
  spec.system.seed = 42;
  spec.workload = workload::medium_load(/*phi=*/4, /*num_resources=*/12);
  spec.warmup = sim::from_ms(200);
  spec.measure = sim::from_ms(2000);

  const ExperimentResult result = scenario::run_scenario(spec, GetParam());
  EXPECT_GT(result.requests_completed, 20u);
  EXPECT_GE(result.use_rate, 0.0);
  EXPECT_LE(result.use_rate, 1.0);
  EXPECT_GE(result.waiting_mean_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SmokeTest,
    ::testing::Values(algo::Algorithm::kIncremental,
                      algo::Algorithm::kBouabdallahLaforest,
                      algo::Algorithm::kLassWithoutLoan,
                      algo::Algorithm::kLassWithLoan,
                      algo::Algorithm::kCentralSharedMemory,
                      algo::Algorithm::kMaddi),
    [](const ::testing::TestParamInfo<algo::Algorithm>& info) {
      std::string name = algo::to_string(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mra::experiment
