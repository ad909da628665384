// Per-run metrics collection: waiting times (global and by request size),
// resource-use rate and completed-request counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/resource_set.hpp"
#include "core/types.hpp"
#include "metrics/stats.hpp"
#include "metrics/usage.hpp"
#include "sim/time.hpp"

namespace mra::metrics {

class Collector {
 public:
  Collector(ResourceId num_resources, std::size_t size_buckets)
      : usage_(num_resources),
        by_size_(size_buckets) {}

  // Called by the workload driver --------------------------------------------
  void on_issue(sim::SimTime t, SiteId site, RequestId seq,
                const ResourceSet& rs);
  void on_grant(sim::SimTime t, SiteId site, RequestId seq,
                const ResourceSet& rs);
  void on_release(sim::SimTime t, SiteId site, RequestId seq,
                  const ResourceSet& rs);

  /// Cuts the measurement window: discards statistics gathered so far
  /// (requests granted before the cut never re-enter the statistics).
  void reset(sim::SimTime t);

  // Results -------------------------------------------------------------------
  [[nodiscard]] const UsageTracker& usage() const { return usage_; }
  [[nodiscard]] const RunningStats& waiting() const { return waiting_; }
  /// Tail quantiles of the waiting time (ms), mergeable across runs.
  [[nodiscard]] const QuantileSketch& waiting_sketch() const {
    return waiting_sketch_;
  }
  /// Waiting stats for requests of size s, bucketed by
  /// bucket = (s - 1) * buckets / max_size; caller fixes max_size.
  [[nodiscard]] const std::vector<RunningStats>& waiting_by_size() const {
    return by_size_;
  }
  void set_max_size(std::size_t max_size) { max_size_ = max_size; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  struct InFlight {
    sim::SimTime issued = 0;
    bool counted = false;  ///< inside the measurement window
  };

  [[nodiscard]] std::size_t bucket_of(std::size_t size) const;

  UsageTracker usage_;
  RunningStats waiting_;
  QuantileSketch waiting_sketch_;
  std::vector<RunningStats> by_size_;
  std::size_t max_size_ = 1;
  std::uint64_t completed_ = 0;
  sim::SimTime window_start_ = 0;
  std::vector<InFlight> in_flight_;  // per site
};

}  // namespace mra::metrics
