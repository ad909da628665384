// The metrics one run reports — the ones the paper's §5 plots — and the
// summary that reads them off a finished run. scenario::run_scenario drives
// the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "metrics/collector.hpp"

namespace mra::experiment {

struct BucketStats {
  double mean_ms = 0.0;
  double stddev_ms = 0.0;
  std::uint64_t count = 0;
};

struct ExperimentResult {
  std::string algorithm;
  int phi = 0;
  double rho = 0.0;

  double use_rate = 0.0;              ///< [0, 1]
  double waiting_mean_ms = 0.0;
  double waiting_stddev_ms = 0.0;
  double waiting_p50_ms = 0.0;
  double waiting_p95_ms = 0.0;
  double waiting_p99_ms = 0.0;
  std::uint64_t requests_completed = 0;
  std::vector<BucketStats> waiting_by_size;

  /// Mergeable waiting-time accumulators, carried so replicated runs can
  /// pool per-rep samples exactly (experiment/replicate.hpp).
  metrics::RunningStats waiting_stats;
  metrics::QuantileSketch waiting_sketch;

  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double messages_per_cs = 0.0;
  std::map<std::string, std::uint64_t> messages_by_kind;

  std::uint64_t loans_used = 0;    ///< LASS only
  std::uint64_t loans_failed = 0;  ///< LASS only
};

/// Extracts every metric field of an ExperimentResult from a finished run:
/// algorithm name, use rate, waiting statistics, message counters and LASS
/// loan counters. Shared by scenario::run_scenario and scenario::
/// replay_trace; `phi`/`rho` stay at their defaults (the caller knows the
/// workload).
[[nodiscard]] ExperimentResult summarize(algo::AllocationSystem& system,
                                         const metrics::Collector& collector);

}  // namespace mra::experiment
