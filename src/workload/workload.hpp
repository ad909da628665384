// The paper's workload model (§5.1).
//
// Each site cycles: think for β (mean inter-request time), pick a request
// size x ~ U(1, φ), pick x distinct resources uniformly, run the CS for a
// duration that grows with x (α ∈ [5 ms, 35 ms]). Load is expressed through
// ρ = β / (ᾱ + γ): low ρ = high load. scenario::ScenarioDriver runs the
// cycle; its closed-exponential arrival process draws the think time.
#pragma once

#include <string>

#include "core/resource_set.hpp"
#include "core/types.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace mra::workload {

/// How the CS duration depends on the request size x. The paper states only
/// that larger requests tend to have longer critical sections.
enum class CsDurationPolicy {
  kSizeProportional,  ///< default: linear in x over [alpha_min, alpha_max]
  kUniformIid,        ///< U(alpha_min, alpha_max), size-independent
  kFixed,             ///< always alpha_min
};

[[nodiscard]] const char* to_string(CsDurationPolicy p);

struct WorkloadConfig {
  int num_resources = 80;  ///< M
  int phi = 4;             ///< φ: maximum request size (1..M)

  sim::SimDuration alpha_min = sim::from_ms(5.0);   ///< shortest CS
  sim::SimDuration alpha_max = sim::from_ms(35.0);  ///< longest CS
  CsDurationPolicy cs_policy = CsDurationPolicy::kSizeProportional;
  double cs_jitter = 0.2;  ///< multiplicative U(1-j, 1+j) on the CS time

  /// ρ = β/(ᾱ+γ): the paper's load knob, inversely proportional to load.
  double rho = 5.0;
  sim::SimDuration gamma = sim::from_ms(0.6);  ///< network latency, for β

  /// Validates ranges; throws std::invalid_argument.
  void validate() const;

  /// Mean CS duration ᾱ implied by the config (over the size distribution).
  [[nodiscard]] sim::SimDuration mean_cs() const;

  /// β = ρ · (ᾱ + γ).
  [[nodiscard]] sim::SimDuration beta() const;
};

/// Canonical "medium load" (ρ = 5) and "high load" (ρ = 0.5) factory
/// functions used by the figure benches.
[[nodiscard]] WorkloadConfig medium_load(int phi, int num_resources = 80);
[[nodiscard]] WorkloadConfig high_load(int phi, int num_resources = 80);

/// `size` distinct resources uniform over [0, num_resources), via partial
/// Fisher-Yates (O(size) RNG draws). The single implementation behind both
/// RequestGenerator and the scenario subsystem's uniform picker.
[[nodiscard]] ResourceSet draw_uniform_resources(int size, int num_resources,
                                                 sim::Rng& rng);

/// Per-site request generator; deterministic given its RNG. It refers to
/// its config, which must outlive it and which its owner validates (a
/// scenario run validates each distinct config once, not once per site).
class RequestGenerator {
 public:
  RequestGenerator(const WorkloadConfig& config, sim::Rng rng)
      : cfg_(config), rng_(rng) {}
  /// A temporary config would dangle.
  RequestGenerator(const WorkloadConfig&& config, sim::Rng rng) = delete;

  /// Request size x ~ U(1, φ).
  [[nodiscard]] int draw_size();

  /// x distinct resources, uniform over [0, M).
  [[nodiscard]] ResourceSet draw_resources(int size);

  /// CS duration for a request of the given size.
  [[nodiscard]] sim::SimDuration draw_cs_duration(int size);

 private:
  const WorkloadConfig& cfg_;
  sim::Rng rng_;
};

}  // namespace mra::workload
