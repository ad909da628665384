// Deterministic mutants of a serialized input, for the tests that feed an
// input boundary (a parser or deserializer) corrupted text: each mutant
// must be refused with the boundary's named error or parse to a value that
// round-trips. There is no fuzzer here, so the mutants are seeded through
// sim::Rng: every truncation of `text`, then `count` copies with one byte
// replaced by one of `bytes`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"

namespace mra::test {

inline std::vector<std::string> mutants_of(const std::string& text,
                                           std::string_view bytes,
                                           std::uint64_t seed,
                                           int count = 4000) {
  std::vector<std::string> mutants;
  for (std::size_t len = 0; len < text.size(); ++len) {
    mutants.push_back(text.substr(0, len));
  }
  sim::Rng rng(seed);
  const auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int i = 0; i < count; ++i) {
    mutants.push_back(text);
    mutants.back()[draw(text.size())] = bytes[draw(bytes.size())];
  }
  return mutants;
}

}  // namespace mra::test
