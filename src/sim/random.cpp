#include "sim/random.hpp"

#include <cassert>
#include <cmath>

namespace mra::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire-style rejection-free-enough bounded draw with rejection to kill
  // modulo bias exactly.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = next_double();
  // next_double() can return exactly 0; log(0) is -inf, so nudge.
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

Rng Rng::split() { return Rng(next_u64() ^ 0xA5A5A5A55A5A5A5AULL); }

}  // namespace mra::sim
