// Deterministic random number generation, used for the §5.1 workload model
// (request sizes x ~ U(1, φ), resource picks, think times) and for latency
// jitter.
//
// We deliberately avoid std::mt19937 + std::*_distribution: libstdc++ does
// not guarantee distribution output across versions, and reproducibility is a
// hard requirement here. xoshiro256++ (public domain, Blackman & Vigna) plus
// hand-rolled distributions gives identical streams on every platform.
#pragma once

#include <array>
#include <cstdint>

namespace mra::sim {

/// splitmix64 — used to expand a single seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256++ PRNG with explicit, portable distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xBADC0FFEE0DDF00DULL);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive). Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Derives an independent child generator (for per-node streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace mra::sim
