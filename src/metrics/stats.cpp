#include "metrics/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/wire.hpp"

namespace mra::metrics {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string RunningStats::serialize() const {
  std::string out = "{\"count\":" + std::to_string(count_);
  out += ",\"mean\":";
  wire::append_double(out, mean_);
  out += ",\"m2\":";
  wire::append_double(out, m2_);
  out += ",\"sum\":";
  wire::append_double(out, sum_);
  out += ",\"min\":";
  wire::append_double(out, min_);
  out += ",\"max\":";
  wire::append_double(out, max_);
  out += '}';
  return out;
}

RunningStats RunningStats::deserialize(std::string_view text) {
  wire::Cursor c(text, "metrics deserialize");
  RunningStats s = read(c);
  c.expect_end();
  return s;
}

RunningStats RunningStats::read(wire::Cursor& c) {
  RunningStats s;
  c.expect("{\"count\":");
  s.count_ = c.read_u64();
  c.expect(",\"mean\":");
  s.mean_ = c.read_double();
  c.expect(",\"m2\":");
  s.m2_ = c.read_double();
  c.expect(",\"sum\":");
  s.sum_ = c.read_double();
  c.expect(",\"min\":");
  s.min_ = c.read_double();
  c.expect(",\"max\":");
  s.max_ = c.read_double();
  c.expect("}");
  return s;
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

QuantileSketch::QuantileSketch(double alpha) : alpha_(alpha) {
  // Checked before any bucket-index cast: a smaller alpha means millions of
  // buckets (1e-7 asks for ~1.9 GB), and below ~1e-9 the int32 casts below
  // overflow.
  if (!(alpha >= kMinAlpha && alpha < 1.0)) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "QuantileSketch: alpha %g outside [%g, 1)",
                  alpha, kMinAlpha);
    throw std::invalid_argument(msg);
  }
  gamma_ = (1.0 + alpha) / (1.0 - alpha);
  log_gamma_ = std::log(gamma_);
  // Log bucket j covers (gamma^(j-1), gamma^j]; span every j that a
  // trackable value can map to.
  const auto j_min =
      static_cast<std::int32_t>(std::floor(std::log(kMinTrackable) / log_gamma_));
  const auto j_max =
      static_cast<std::int32_t>(std::ceil(std::log(kMaxTrackable) / log_gamma_));
  index_offset_ = j_min;
  num_buckets_ = static_cast<std::size_t>(j_max - j_min + 1);
}

std::size_t QuantileSketch::bucket_index(double x) const {
  // Precondition: kMinTrackable < x <= kMaxTrackable.
  const auto j =
      static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_));
  const std::int32_t rel = j - index_offset_;
  const auto clamped = std::clamp<std::int32_t>(
      rel, 0, static_cast<std::int32_t>(num_buckets_) - 1);
  return 1 + static_cast<std::size_t>(clamped);
}

double QuantileSketch::bucket_low(std::size_t idx) const {
  // idx >= 1: log bucket (gamma^(j-1), gamma^j] with j = offset + idx - 1.
  return std::exp(static_cast<double>(index_offset_ +
                                      static_cast<std::int32_t>(idx) - 2) *
                  log_gamma_);
}

double QuantileSketch::bucket_high(std::size_t idx) const {
  return std::exp(static_cast<double>(index_offset_ +
                                      static_cast<std::int32_t>(idx) - 1) *
                  log_gamma_);
}

void QuantileSketch::add(double x) {
  if (!std::isfinite(x)) {
    ++nonfinite_;  // never cast to an index: that cast is UB
    return;
  }
  if (counts_.empty()) counts_.assign(1 + num_buckets_, 0);
  ++count_;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (x < 0.0) {
    ++underflow_;
  } else if (x <= kMinTrackable) {
    ++counts_[0];
  } else if (x > kMaxTrackable) {
    ++overflow_;
  } else {
    ++counts_[bucket_index(x)];
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_) {
    throw std::invalid_argument(
        "QuantileSketch::merge: mismatched relative-accuracy parameters");
  }
  nonfinite_ += other.nonfinite_;
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(1 + num_buckets_, 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double QuantileSketch::percentile(double p) const {
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument(
        "QuantileSketch::percentile: p outside [0, 100]");
  }
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  target = std::clamp<std::uint64_t>(target, 1, count_);

  std::uint64_t seen = underflow_;
  if (target <= seen) return min_;
  seen += counts_[0];
  if (target <= seen) return std::clamp(0.0, min_, max_);
  for (std::size_t i = 1; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (c != 0 && target <= seen + c) {
      const double frac = static_cast<double>(target - seen) /
                          static_cast<double>(c);
      const double lo = bucket_low(i);
      const double v = lo + (bucket_high(i) - lo) * frac;
      return std::clamp(v, min_, max_);
    }
    seen += c;
  }
  return max_;  // rank lands in the overflow region
}

std::string QuantileSketch::serialize() const {
  std::string out = "{\"alpha\":";
  wire::append_double(out, alpha_);
  out += ",\"count\":" + std::to_string(count_);
  out += ",\"underflow\":" + std::to_string(underflow_);
  out += ",\"overflow\":" + std::to_string(overflow_);
  out += ",\"nonfinite\":" + std::to_string(nonfinite_);
  out += ",\"min\":";
  wire::append_double(out, min_);
  out += ",\"max\":";
  wire::append_double(out, max_);
  out += ",\"buckets\":[";
  bool first = true;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(i) + ',' + std::to_string(counts_[i]) + ']';
  }
  out += "]}";
  return out;
}

QuantileSketch QuantileSketch::deserialize(std::string_view text) {
  wire::Cursor c(text, "metrics deserialize");
  QuantileSketch s = read(c);
  c.expect_end();
  return s;
}

QuantileSketch QuantileSketch::read(wire::Cursor& c) {
  c.expect("{\"alpha\":");
  const double alpha = c.read_double();
  QuantileSketch s(alpha);  // derives gamma / offset / bucket span from alpha
  c.expect(",\"count\":");
  s.count_ = c.read_u64();
  c.expect(",\"underflow\":");
  s.underflow_ = c.read_u64();
  c.expect(",\"overflow\":");
  s.overflow_ = c.read_u64();
  c.expect(",\"nonfinite\":");
  s.nonfinite_ = c.read_u64();
  c.expect(",\"min\":");
  s.min_ = c.read_double();
  c.expect(",\"max\":");
  s.max_ = c.read_double();
  c.expect(",\"buckets\":[");
  // add() allocates the bucket array on the first sample, so a non-empty
  // sketch always carries it; preserve that invariant (merge iterates over
  // other.counts_, so dropping it would silently lose every bucket).
  if (s.count_ > 0) s.counts_.assign(1 + s.num_buckets_, 0);
  while (!c.peek(']')) {
    c.expect("[");
    const std::uint64_t idx = c.read_u64();
    c.expect(",");
    const std::uint64_t cnt = c.read_u64();
    c.expect("]");
    if (idx >= s.counts_.size()) c.fail("bucket index out of range");
    s.counts_[idx] = cnt;
    if (c.peek(',')) c.expect(",");
  }
  c.expect("]}");
  // add() and merge() keep both invariants, and percentile() relies on
  // them: its rank walk must end inside the counts, and its clamp needs
  // min <= max.
  std::uint64_t total = 0;
  bool wrapped = false;
  const auto add = [&](std::uint64_t n) {
    wrapped = wrapped || n > std::numeric_limits<std::uint64_t>::max() - total;
    total += n;
  };
  add(s.underflow_);
  add(s.overflow_);
  for (const std::uint64_t n : s.counts_) add(n);
  if (wrapped || total != s.count_) {
    c.fail("count " + std::to_string(s.count_) +
           " is not underflow + overflow + the bucket counts");
  }
  if (s.count_ > 0 && !(s.min_ <= s.max_)) {
    c.fail("min is not at most max in a non-empty sketch");
  }
  return s;
}

void QuantileSketch::reset() {
  counts_.clear();
  count_ = 0;
  underflow_ = 0;
  overflow_ = 0;
  nonfinite_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// Student-t confidence intervals
// ---------------------------------------------------------------------------

double student_t95(std::uint64_t df) {
  if (df == 0) {
    throw std::invalid_argument("student_t95: df must be >= 1");
  }
  // t_{0.975, df}, exact through df = 30.
  static constexpr std::array<double, 30> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df <= kTable.size()) return kTable[df - 1];
  // Above 30, interpolate linearly in 1/df between tabulated anchors — the
  // textbook approximation; error < 1e-3 everywhere.
  struct Anchor {
    double df;
    double t;
  };
  static constexpr std::array<Anchor, 4> kAnchors = {
      Anchor{40.0, 2.021}, Anchor{60.0, 2.000}, Anchor{120.0, 1.980},
      Anchor{std::numeric_limits<double>::infinity(), 1.960}};
  double prev_df = 30.0;
  double prev_t = kTable.back();
  const auto x = static_cast<double>(df);
  for (const Anchor& a : kAnchors) {
    if (x <= a.df) {
      const double w =
          (1.0 / prev_df - 1.0 / x) / (1.0 / prev_df - 1.0 / a.df);
      return prev_t + w * (a.t - prev_t);
    }
    prev_df = a.df;
    prev_t = a.t;
  }
  return 1.960;  // unreachable: the last anchor is at infinity
}

Estimate mean_ci95(const RunningStats& per_rep) {
  Estimate e;
  e.mean = per_rep.mean();
  const std::uint64_t n = per_rep.count();
  if (n < 2) return e;  // ci95_half stays NaN: no interval from one point
  e.ci95_half = student_t95(n - 1) * per_rep.stddev() /
                std::sqrt(static_cast<double>(n));
  return e;
}

}  // namespace mra::metrics
