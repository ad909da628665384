// Shared test harness: drives an AllocationSystem with a random workload
// while checking the three correctness properties of the problem statement
// (§1 of the paper) as explicit gtest expectations:
//   safety       — conflicting requests never overlap in CS (an attached
//                  check::Monitor runs the mutual-exclusion oracle),
//   liveness     — every issued request is eventually granted and released,
//   concurrency  — non-conflicting requests may overlap (checked as: some
//                  overlap occurred in runs where it is statistically certain).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "algo/factory.hpp"
#include "sim/random.hpp"
#include "workload/workload.hpp"

namespace mra::test {

struct StressOptions {
  algo::Algorithm algorithm = algo::Algorithm::kLassWithLoan;
  int num_sites = 8;
  int num_resources = 12;
  int phi = 4;
  int requests_per_site = 25;
  std::uint64_t seed = 1;
  double rho = 1.0;
  sim::SimDuration cs_time = sim::from_ms(2.0);
  sim::SimDuration max_think = sim::from_ms(4.0);
};

struct StressOutcome {
  std::uint64_t completed = 0;
  std::uint64_t max_concurrent_cs = 0;
  std::uint64_t messages = 0;
  bool quiescent = false;   ///< event queue drained
  bool all_idle = false;    ///< every node back to Idle
  sim::SimTime end_time = 0;
};

/// Runs the workload to quiescence; every safety violation the monitor
/// reports is recorded as a gtest failure against the current test.
StressOutcome run_stress(const StressOptions& options);

}  // namespace mra::test
