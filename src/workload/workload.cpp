#include "workload/workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace mra::workload {

const char* to_string(CsDurationPolicy p) {
  switch (p) {
    case CsDurationPolicy::kSizeProportional: return "size-proportional";
    case CsDurationPolicy::kUniformIid: return "uniform-iid";
    case CsDurationPolicy::kFixed: return "fixed";
  }
  return "?";
}

void WorkloadConfig::validate() const {
  // Every message names the offending field and its value, so a bad sweep
  // config is diagnosable from the exception alone.
  if (num_resources <= 0) {
    throw std::invalid_argument("workload.num_resources: must be > 0, got " +
                                std::to_string(num_resources));
  }
  if (phi < 1 || phi > num_resources) {
    throw std::invalid_argument(
        "workload.phi: must be in [1, num_resources=" +
        std::to_string(num_resources) + "], got " + std::to_string(phi));
  }
  if (alpha_min <= 0 || alpha_max < alpha_min) {
    throw std::invalid_argument(
        "workload.alpha_min/alpha_max: need 0 < alpha_min <= alpha_max, got "
        "alpha_min=" +
        std::to_string(alpha_min) + " alpha_max=" + std::to_string(alpha_max));
  }
  if (rho <= 0.0) {
    throw std::invalid_argument("workload.rho: must be > 0, got " +
                                std::to_string(rho));
  }
  if (cs_jitter < 0.0 || cs_jitter >= 1.0) {
    throw std::invalid_argument("workload.cs_jitter: must be in [0, 1), got " +
                                std::to_string(cs_jitter));
  }
}

sim::SimDuration WorkloadConfig::mean_cs() const {
  switch (cs_policy) {
    case CsDurationPolicy::kFixed:
      return alpha_min;
    case CsDurationPolicy::kUniformIid:
      return (alpha_min + alpha_max) / 2;
    case CsDurationPolicy::kSizeProportional: {
      // E[x] = (1 + φ)/2; the duration is linear in (x-1)/(φ-1), so the CS
      // time spans the full [alpha_min, alpha_max] range in every experiment
      // (the paper varies α from 5 ms to 35 ms regardless of φ).
      const double f = 0.5;  // E[(x-1)/(φ-1)] = 1/2 (φ = 1: middle of range)
      return alpha_min + static_cast<sim::SimDuration>(
                             f * static_cast<double>(alpha_max - alpha_min));
    }
  }
  return alpha_min;
}

sim::SimDuration WorkloadConfig::beta() const {
  return static_cast<sim::SimDuration>(
      rho * static_cast<double>(mean_cs() + gamma));
}

WorkloadConfig medium_load(int phi, int num_resources) {
  WorkloadConfig cfg;
  cfg.num_resources = num_resources;
  cfg.phi = phi;
  cfg.rho = 5.0;
  return cfg;
}

WorkloadConfig high_load(int phi, int num_resources) {
  WorkloadConfig cfg;
  cfg.num_resources = num_resources;
  cfg.phi = phi;
  cfg.rho = 0.5;
  return cfg;
}

int RequestGenerator::draw_size() {
  return static_cast<int>(rng_.uniform_int(1, cfg_.phi));
}

ResourceSet draw_uniform_resources(int size, int num_resources,
                                   sim::Rng& rng) {
  // Partial Fisher-Yates over the resource universe: O(size) draws.
  ResourceSet out(num_resources);
  std::vector<ResourceId> pool(static_cast<std::size_t>(num_resources));
  for (ResourceId r = 0; r < num_resources; ++r) {
    pool[static_cast<std::size_t>(r)] = r;
  }
  for (int i = 0; i < size; ++i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(i, num_resources - 1));
    std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
    out.insert(pool[static_cast<std::size_t>(i)]);
  }
  return out;
}

ResourceSet RequestGenerator::draw_resources(int size) {
  return draw_uniform_resources(size, cfg_.num_resources, rng_);
}

sim::SimDuration RequestGenerator::draw_cs_duration(int size) {
  double base;
  switch (cfg_.cs_policy) {
    case CsDurationPolicy::kFixed:
      base = static_cast<double>(cfg_.alpha_min);
      break;
    case CsDurationPolicy::kUniformIid:
      base = rng_.uniform_real(static_cast<double>(cfg_.alpha_min),
                               static_cast<double>(cfg_.alpha_max));
      break;
    case CsDurationPolicy::kSizeProportional: {
      // Scale by the request's position in [1, φ]: the α range is a property
      // of the experiment, not of M, so every φ sees CS times in
      // [alpha_min, alpha_max]. φ = 1 degenerates to the middle of the range.
      const double f = cfg_.phi > 1
                           ? (static_cast<double>(size) - 1.0) /
                                 static_cast<double>(cfg_.phi - 1)
                           : 0.5;
      base = static_cast<double>(cfg_.alpha_min) +
             f * static_cast<double>(cfg_.alpha_max - cfg_.alpha_min);
      break;
    }
    default:
      base = static_cast<double>(cfg_.alpha_min);
  }
  if (cfg_.cs_jitter > 0.0) {
    base *= rng_.uniform_real(1.0 - cfg_.cs_jitter, 1.0 + cfg_.cs_jitter);
  }
  return std::max<sim::SimDuration>(1, static_cast<sim::SimDuration>(base));
}

}  // namespace mra::workload
