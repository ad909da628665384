// The pluggable generator components behind a ScenarioSpec:
//
//   ResourcePicker  — strategy for "which x resources does this request
//                     take": uniform (the paper), or weighted (Zipf,
//                     hotspot) sampled without replacement;
//   ArrivalProcess  — "when is the next request born": closed-loop
//                     exponential (the paper), open-loop Poisson, or
//                     ON/OFF bursty, selected by kind in one value type;
//   effective_site_workload — per-site WorkloadConfig with the scenario's
//                     heterogeneity applied (heavy sites get larger φ and
//                     longer CS ranges).
//
// All components are deterministic given the Rng they are fed.
#pragma once

#include <memory>

#include "core/resource_set.hpp"
#include "scenario/spec.hpp"
#include "sim/random.hpp"

namespace mra::scenario {

/// Draws `size` distinct resources from [0, M) according to a popularity
/// distribution. Stateless between draws apart from the caller's RNG, so a
/// run builds one picker and every site draws through it with its own RNG.
class ResourcePicker {
 public:
  virtual ~ResourcePicker() = default;
  [[nodiscard]] virtual ResourceSet draw(int size, sim::Rng& rng) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

[[nodiscard]] std::unique_ptr<ResourcePicker> make_picker(
    const PopularitySpec& spec, int num_resources);

/// Produces inter-request delays. Closed-loop processes return the think
/// time between a CS release and the next request; open-loop processes
/// (open_loop() == true) return the gap to the next arrival, independent of
/// service. One concrete value type: the kind selects the draw, so a driver
/// holds its process inline. Only ON/OFF keeps phase state between draws,
/// advanced by `now`.
class ArrivalProcess {
 public:
  /// `mean` is the mean think time (closed, ON/OFF) or inter-arrival gap
  /// (open); `on_mean` and `off_mean` are the ON/OFF phase means.
  ArrivalProcess(Arrival kind, double mean, sim::SimDuration on_mean = 0,
                 sim::SimDuration off_mean = 0)
      : kind_(kind), mean_(mean), on_mean_(on_mean), off_mean_(off_mean) {}

  [[nodiscard]] bool open_loop() const {
    return kind_ == Arrival::kOpenPoisson;
  }
  [[nodiscard]] sim::SimDuration next_delay(sim::SimTime now, sim::Rng& rng);

 private:
  sim::SimDuration draw_phase(sim::Rng& rng);
  void toggle(sim::Rng& rng);

  Arrival kind_;
  bool initialized_ = false;  ///< ON/OFF: the first phase has been drawn
  bool on_ = true;            ///< ON/OFF: the current phase
  double mean_;
  sim::SimDuration on_mean_;
  sim::SimDuration off_mean_;
  sim::SimTime phase_end_ = 0;  ///< ON/OFF: when the current phase ends
};

/// `site_cfg` supplies β (and ᾱ for the open-loop default rate).
[[nodiscard]] ArrivalProcess make_arrival(
    const ArrivalSpec& spec, const workload::WorkloadConfig& site_cfg);

/// Number of heavy sites implied by the spec: round(heavy_fraction · N).
[[nodiscard]] int num_heavy_sites(const ScenarioSpec& spec);

/// The WorkloadConfig site `site` actually runs (heavy sites scaled).
[[nodiscard]] workload::WorkloadConfig effective_site_workload(
    const ScenarioSpec& spec, int site);

}  // namespace mra::scenario
