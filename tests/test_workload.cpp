// Workload model tests: distributions, load arithmetic, validation.
#include <gtest/gtest.h>

#include <type_traits>

#include "scenario/generator.hpp"
#include "workload/workload.hpp"

namespace mra::workload {
namespace {

/// Returns the what() of the std::invalid_argument validate() throws, or ""
/// when it does not throw.
std::string rejection_message(const WorkloadConfig& cfg) {
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(WorkloadConfig, ValidationRejectsBadRanges) {
  WorkloadConfig cfg;
  cfg.num_resources = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.phi = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.phi = 81;  // > M
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.alpha_max = cfg.alpha_min - 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.rho = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.cs_jitter = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(WorkloadConfig, RejectionMessagesNameTheOffendingField) {
  // Each rejection path must name the field (and value) that tripped it,
  // so a bad sweep config is diagnosable from the exception alone.
  WorkloadConfig cfg;
  cfg.num_resources = -3;
  EXPECT_NE(rejection_message(cfg).find("num_resources"), std::string::npos);
  EXPECT_NE(rejection_message(cfg).find("-3"), std::string::npos);

  cfg = {};
  cfg.phi = 81;  // > num_resources = 80
  EXPECT_NE(rejection_message(cfg).find("phi"), std::string::npos);
  EXPECT_NE(rejection_message(cfg).find("81"), std::string::npos);
  cfg.phi = 0;
  EXPECT_NE(rejection_message(cfg).find("phi"), std::string::npos);

  cfg = {};
  cfg.alpha_max = cfg.alpha_min - 1;
  EXPECT_NE(rejection_message(cfg).find("alpha"), std::string::npos);

  cfg = {};
  cfg.rho = -0.5;
  EXPECT_NE(rejection_message(cfg).find("rho"), std::string::npos);

  cfg = {};
  cfg.cs_jitter = 1.0;
  EXPECT_NE(rejection_message(cfg).find("cs_jitter"), std::string::npos);

  cfg = {};
  EXPECT_EQ(rejection_message(cfg), "");
}

TEST(WorkloadConfig, BetaFollowsRho) {
  // ρ = β / (ᾱ + γ)  =>  β = ρ (ᾱ + γ). Low ρ = high load = short think.
  WorkloadConfig cfg = medium_load(4);
  const auto beta_medium = cfg.beta();
  WorkloadConfig high = high_load(4);
  EXPECT_LT(high.beta(), beta_medium);
  EXPECT_NEAR(static_cast<double>(cfg.beta()),
              cfg.rho * static_cast<double>(cfg.mean_cs() + cfg.gamma), 1.0);
}

TEST(WorkloadConfig, MeanCsSpansAlphaRange) {
  WorkloadConfig cfg;
  cfg.cs_policy = CsDurationPolicy::kSizeProportional;
  // Mean of the size-proportional law is the middle of [αmin, αmax],
  // independent of φ (the paper's α varies 5..35 ms in every experiment).
  EXPECT_EQ(cfg.mean_cs(), (cfg.alpha_min + cfg.alpha_max) / 2);
  cfg.cs_policy = CsDurationPolicy::kFixed;
  EXPECT_EQ(cfg.mean_cs(), cfg.alpha_min);
}

// A generator refers to its config, so a temporary must not bind to one.
static_assert(!std::is_constructible_v<RequestGenerator, WorkloadConfig,
                                       sim::Rng>);
static_assert(
    std::is_constructible_v<RequestGenerator, const WorkloadConfig&, sim::Rng>);

TEST(RequestGenerator, SizesInRangeAndCoverPhi) {
  WorkloadConfig cfg;
  cfg.phi = 7;
  RequestGenerator gen(cfg, sim::Rng(3));
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 7000; ++i) {
    const int x = gen.draw_size();
    ASSERT_GE(x, 1);
    ASSERT_LE(x, 7);
    ++counts[static_cast<std::size_t>(x)];
  }
  for (int x = 1; x <= 7; ++x) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(x)], 1000, 150)
        << "size " << x << " not uniform";
  }
}

TEST(RequestGenerator, ResourcesDistinctAndInUniverse) {
  WorkloadConfig cfg;
  cfg.num_resources = 20;
  cfg.phi = 20;
  RequestGenerator gen(cfg, sim::Rng(4));
  for (int i = 0; i < 500; ++i) {
    const int size = gen.draw_size();
    const ResourceSet rs = gen.draw_resources(size);
    EXPECT_EQ(rs.size(), static_cast<std::size_t>(size));  // distinct by set
    rs.for_each([&](ResourceId r) {
      EXPECT_GE(r, 0);
      EXPECT_LT(r, 20);
    });
  }
}

TEST(RequestGenerator, FullUniverseRequestPossible) {
  WorkloadConfig cfg;
  cfg.num_resources = 5;
  cfg.phi = 5;
  RequestGenerator gen(cfg, sim::Rng(5));
  const ResourceSet rs = gen.draw_resources(5);
  EXPECT_EQ(rs.size(), 5u);
}

TEST(RequestGenerator, CsDurationMonotoneInSizeOnAverage) {
  WorkloadConfig cfg;
  cfg.phi = 80;
  cfg.cs_policy = CsDurationPolicy::kSizeProportional;
  RequestGenerator gen(cfg, sim::Rng(6));
  double small_sum = 0;
  double large_sum = 0;
  for (int i = 0; i < 300; ++i) {
    small_sum += static_cast<double>(gen.draw_cs_duration(1));
    large_sum += static_cast<double>(gen.draw_cs_duration(80));
  }
  EXPECT_LT(small_sum / 300, static_cast<double>(sim::from_ms(8)));
  EXPECT_GT(large_sum / 300, static_cast<double>(sim::from_ms(28)));
  EXPECT_LT(small_sum, large_sum);
}

TEST(RequestGenerator, CsDurationWithinJitterBounds) {
  WorkloadConfig cfg;
  cfg.phi = 4;
  cfg.cs_jitter = 0.2;
  RequestGenerator gen(cfg, sim::Rng(7));
  for (int i = 0; i < 1000; ++i) {
    const auto d = gen.draw_cs_duration(4);  // x = φ: base = αmax
    EXPECT_GE(d, static_cast<sim::SimDuration>(0.8 * 35e6) - 1);
    EXPECT_LE(d, static_cast<sim::SimDuration>(1.2 * 35e6) + 1);
  }
}

TEST(RequestGenerator, DeterministicGivenSeed) {
  WorkloadConfig cfg;
  RequestGenerator a(cfg, sim::Rng(9));
  RequestGenerator b(cfg, sim::Rng(9));
  // Think times come from the closed-loop arrival process, as in a run.
  scenario::ArrivalProcess think_a = scenario::make_arrival({}, cfg);
  scenario::ArrivalProcess think_b = scenario::make_arrival({}, cfg);
  sim::Rng ra(10);
  sim::Rng rb(10);
  for (int i = 0; i < 100; ++i) {
    const int sa = a.draw_size();
    const int sb = b.draw_size();
    ASSERT_EQ(sa, sb);
    ASSERT_EQ(a.draw_resources(sa).to_vector(), b.draw_resources(sb).to_vector());
    ASSERT_EQ(a.draw_cs_duration(sa), b.draw_cs_duration(sb));
    ASSERT_EQ(think_a.next_delay(0, ra), think_b.next_delay(0, rb));
  }
}

}  // namespace
}  // namespace mra::workload
