// Small shared pieces of mra_bench: the FNV-1a output digest, an ostream that
// hashes instead of storing, wall/CPU clocks, and median/min/max summaries.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace mra_bench {

/// 64-bit FNV-1a: every workload reduces its deterministic output to one.
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kPrime;
    }
  }
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= kPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// An ostream that hashes what is written instead of keeping it, so a
/// multi-megabyte trace export costs no memory. The streambuf base is
/// declared first so it is constructed before the ostream that uses it.
class HashStream : private std::streambuf, public std::ostream {
 public:
  HashStream() : std::ostream(static_cast<std::streambuf*>(this)) {}

  [[nodiscard]] std::uint64_t digest() const { return hash_.value(); }

 private:
  using Traits = std::streambuf::traits_type;

  std::streambuf::int_type overflow(std::streambuf::int_type c) override {
    if (c != Traits::eof()) {
      const char ch = Traits::to_char_type(c);
      hash_.add(std::string_view(&ch, 1));
    }
    return Traits::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_.add(std::string_view(s, static_cast<std::size_t>(n)));
    return n;
  }

  Fnv1a hash_;
};

/// Monotonic wall clock (CLOCK_MONOTONIC: shared by parent and child
/// processes, so a child can measure from its parent's spawn instant).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// User + system CPU seconds of this process, all threads.
[[nodiscard]] inline double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Median (mean of the middle pair for even sizes), min and max.
[[nodiscard]] inline Spread spread(std::vector<double> v) {
  Spread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  s.min = v.front();
  s.max = v.back();
  return s;
}

}  // namespace mra_bench
