// The paper's qualitative claims as regression tests. These run scaled-down
// versions of the figure benches (shorter windows, same structure) so the
// suite stays fast while pinning the headline results:
//   - LASS outperforms Bouabdallah-Laforest at small request sizes,
//   - the loan mechanism helps under high load at medium sizes,
//   - BL's waiting time is size-independent; LASS penalizes small requests,
//   - the Incremental baseline suffers the domino effect at large phi,
//   - the shared-memory reference upper-bounds every distributed algorithm.
#include <gtest/gtest.h>

#include "scenario/runner.hpp"

namespace mra::experiment {
namespace {

scenario::ScenarioSpec paper_like(algo::Algorithm alg, int phi, double rho,
                                  std::uint64_t seed = 1) {
  scenario::ScenarioSpec spec;
  spec.system.algorithm = alg;
  spec.system.num_sites = 16;    // half the paper's N to keep tests fast
  spec.system.num_resources = 40;
  spec.system.seed = seed;
  spec.workload = workload::medium_load(phi, 40);
  spec.workload.rho = rho;
  spec.warmup = sim::from_ms(500);
  spec.measure = sim::from_ms(6000);
  return spec;
}

ExperimentResult run(const scenario::ScenarioSpec& spec) {
  return scenario::run_scenario(spec, spec.system.algorithm);
}

TEST(PaperClaims, LassBeatsBouabdallahLaforestAtSmallPhi) {
  // §5.3: lower synchronization cost => lower waiting time at phi = 4.
  const auto bl = run(
      paper_like(algo::Algorithm::kBouabdallahLaforest, 4, 0.5));
  const auto lass =
      run(paper_like(algo::Algorithm::kLassWithoutLoan, 4, 0.5));
  EXPECT_LT(lass.waiting_mean_ms, bl.waiting_mean_ms);
  EXPECT_GT(lass.use_rate, bl.use_rate);
  EXPECT_GT(lass.requests_completed, bl.requests_completed);
}

TEST(PaperClaims, LoanImprovesHighLoadMediumSizes) {
  // §5.2: the loan mechanism reduces the conflict penalty of medium-size
  // requests under high load and never hurts large ones. A single seed is
  // noisy at test scale, so average over three.
  double use_with = 0, use_without = 0, wait_with = 0, wait_without = 0;
  std::uint64_t loans = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto without = run(
        paper_like(algo::Algorithm::kLassWithoutLoan, 8, 0.5, seed));
    const auto with = run(
        paper_like(algo::Algorithm::kLassWithLoan, 8, 0.5, seed));
    use_without += without.use_rate;
    use_with += with.use_rate;
    wait_without += without.waiting_mean_ms;
    wait_with += with.waiting_mean_ms;
    loans += with.loans_used;
  }
  EXPECT_GT(use_with, use_without);
  EXPECT_LT(wait_with, wait_without * 1.02);
  EXPECT_GT(loans, 0u);

  const auto without_big =
      run(paper_like(algo::Algorithm::kLassWithoutLoan, 40, 0.5));
  const auto with_big =
      run(paper_like(algo::Algorithm::kLassWithLoan, 40, 0.5));
  EXPECT_NEAR(with_big.use_rate, without_big.use_rate, 0.03)
      << "loan must not degrade large-request workloads";
}

TEST(PaperClaims, BlWaitingFlatInSizeLassPenalizesSmall) {
  // Figure 7's two signatures, at phi = M (largest request sizes), over
  // Figure 7's six size buckets.
  const auto bl =
      run(paper_like(algo::Algorithm::kBouabdallahLaforest, 40, 0.5));
  const auto lass =
      run(paper_like(algo::Algorithm::kLassWithoutLoan, 40, 0.5));

  ASSERT_EQ(bl.waiting_by_size.size(), 6u);
  const auto& bl_small = bl.waiting_by_size.front();
  const auto& bl_large = bl.waiting_by_size.back();
  ASSERT_GT(bl_small.count, 10u);
  ASSERT_GT(bl_large.count, 10u);
  // BL: static schedule => bucket means within 15% of each other.
  EXPECT_NEAR(bl_small.mean_ms / bl_large.mean_ms, 1.0, 0.15);

  // LASS: the smallest bucket has a markedly larger stddev than the
  // largest (single hot counters race ahead — §5.3).
  const auto& l_small = lass.waiting_by_size.front();
  const auto& l_large = lass.waiting_by_size.back();
  ASSERT_GT(l_small.count, 10u);
  EXPECT_GT(l_small.stddev_ms, l_large.stddev_ms * 1.5);
}

TEST(PaperClaims, IncrementalDominoEffectAtLargePhi) {
  // §2.1/§5.2: ordered locking wastes the request-size growth; its use rate
  // stays flat while LASS's grows with phi.
  const auto inc_small =
      run(paper_like(algo::Algorithm::kIncremental, 2, 0.5));
  const auto inc_large =
      run(paper_like(algo::Algorithm::kIncremental, 40, 0.5));
  const auto lass_large =
      run(paper_like(algo::Algorithm::kLassWithoutLoan, 40, 0.5));
  EXPECT_LT(inc_large.use_rate, inc_small.use_rate + 0.05)
      << "incremental must not benefit from larger requests";
  EXPECT_GT(lass_large.use_rate, inc_large.use_rate * 2.0)
      << "LASS must exploit large requests where incremental cannot";
}

TEST(PaperClaims, SharedMemoryUpperBoundsEveryAlgorithm) {
  for (int phi : {2, 8, 40}) {
    const auto shm = run(
        paper_like(algo::Algorithm::kCentralSharedMemory, phi, 0.5));
    for (auto alg : {algo::Algorithm::kIncremental,
                     algo::Algorithm::kBouabdallahLaforest,
                     algo::Algorithm::kLassWithLoan, algo::Algorithm::kMaddi}) {
      const auto r = run(paper_like(alg, phi, 0.5));
      EXPECT_LE(r.use_rate, shm.use_rate * 1.05)
          << algo::to_string(alg) << " at phi=" << phi
          << " beat the zero-cost scheduler — impossible";
    }
  }
}

TEST(PaperClaims, HigherLoadNeverReducesUseRate) {
  // Sanity on the load knob itself: more offered load (lower rho) cannot
  // reduce the use rate of a work-conserving-ish scheduler by much.
  for (auto alg : {algo::Algorithm::kLassWithLoan,
                   algo::Algorithm::kCentralSharedMemory}) {
    const auto medium = run(paper_like(alg, 4, 5.0));
    const auto high = run(paper_like(alg, 4, 0.5));
    EXPECT_GT(high.use_rate, medium.use_rate * 0.9) << algo::to_string(alg);
  }
}

TEST(PaperClaims, HierarchicalTopologyWidensBlGap) {
  // §6 conjecture at test scale: the BL/LASS waiting gap grows with the
  // WAN latency.
  auto make = [](algo::Algorithm alg, double wan_ms) {
    auto spec = paper_like(alg, 4, 0.5);
    spec.system.hierarchical_clusters = 2;
    spec.system.hierarchical_remote_latency = sim::from_ms(wan_ms);
    return spec;
  };
  const double gap_lan =
      run(make(algo::Algorithm::kBouabdallahLaforest, 0.6))
          .waiting_mean_ms /
      run(make(algo::Algorithm::kLassWithLoan, 0.6))
          .waiting_mean_ms;
  const double gap_wan =
      run(make(algo::Algorithm::kBouabdallahLaforest, 20.0))
          .waiting_mean_ms /
      run(make(algo::Algorithm::kLassWithLoan, 20.0))
          .waiting_mean_ms;
  EXPECT_GT(gap_wan, gap_lan);
}

TEST(PaperClaims, JitteredLatencyPreservesCorrectness) {
  // The paper assumes FIFO links, not constant latency; everything must
  // hold under ±50% jitter too.
  for (auto alg : {algo::Algorithm::kLassWithLoan,
                   algo::Algorithm::kBouabdallahLaforest,
                   algo::Algorithm::kMaddi}) {
    auto spec = paper_like(alg, 6, 0.5);
    spec.system.latency_jitter = 0.5;
    spec.measure = sim::from_ms(3000);
    const auto r = run(spec);
    EXPECT_GT(r.requests_completed, 100u) << algo::to_string(alg);
  }
}

}  // namespace
}  // namespace mra::experiment
