// Tiny shared command-line helper for the bench and example binaries. Lives
// in the library so every front end parses flags the same way (both the
// "--name value" and "--name=value" spellings, and one validated parser per
// kind of number) instead of drifting copies.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "core/wire.hpp"

namespace mra::cli {

/// Returns true when argv[i] is the flag `name` in either spelling, storing
/// its value in `out` and advancing `i` past a space-separated value.
/// A flag given without a value, or with an empty one ("--name=" or
/// "--name ''"), prints an error and exits 2: an empty path or name would
/// otherwise silently select the flag's default mode.
inline bool flag_value(int argc, char** argv, int& i, const char* name,
                       std::string& out) {
  const std::string arg = argv[i];
  const std::string prefix = std::string(name) + "=";
  if (arg == name) {
    out = i + 1 < argc ? argv[++i] : "";
  } else if (arg.rfind(prefix, 0) == 0) {
    out = arg.substr(prefix.size());
  } else {
    return false;
  }
  if (out.empty()) {
    std::cerr << name << " needs a value\n";
    std::exit(2);
  }
  return true;
}

namespace detail {
/// One whole decimal token of T (wire::parse_whole) in [min, max];
/// anything else prints the flag, `want`, the bounds that are not T's own
/// limits and the token, and exits 2. NaN fails every comparison and
/// infinity every finite bound, so a value that passes is finite.
template <typename T>
T parse_whole(const char* flag, const std::string& v, T min, T max,
              const char* want) {
  const std::optional<T> value = wire::parse_whole<T>(v);
  if (value && *value >= min && *value <= max) return *value;
  std::cerr << flag << ": want " << want;
  const bool lo = min != std::numeric_limits<T>::lowest();
  const bool hi = max != std::numeric_limits<T>::max();
  if (lo && hi) {
    std::cerr << " in [" << min << ", " << max << "]";
  } else if (lo) {
    std::cerr << " >= " << min;
  } else if (hi) {
    std::cerr << " <= " << max;
  }
  std::cerr << ", got '" << v << "'\n";
  std::exit(2);
}
}  // namespace detail

/// Largest millisecond value a flag accepts: 10^9 ms (about 11.6 days) of
/// simulated time is far past any run and still exact in int64 nanoseconds.
inline constexpr double kMaxFlagMs = 1e9;

/// A bound of parse_count: never deduced, so a literal bound cannot turn
/// parse_count<std::uint64_t> into parse_count<int>.
template <typename T>
using Bound = std::type_identity_t<T>;

/// A count or seed flag: one whole decimal integer token of T in
/// [min, max]. Any other value prints the flag and exits 2; atoi and
/// strtoull would read "2x" as 2, "1.9" as 1 and "abc" as 0 and run
/// something else.
template <typename T = std::uint64_t>
[[nodiscard]] T parse_count(const char* flag, const std::string& v,
                            Bound<T> min = 0,
                            Bound<T> max = std::numeric_limits<T>::max()) {
  return detail::parse_whole<T>(flag, v, min, max, "a whole decimal integer");
}

/// A real-valued flag: one whole finite decimal token in [min, max]. Any
/// other value prints the flag and exits 2; atof would read "nan", "1e400"
/// (infinity) or "abc" (0), and a later float-to-integer cast of the first
/// two is undefined.
[[nodiscard]] inline double parse_number(
    const char* flag, const std::string& v,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  return detail::parse_whole(flag, v, min, max, "a finite decimal number");
}

}  // namespace mra::cli
