// Streaming statistics helpers: Welford mean/variance, a mergeable
// log-bucketed quantile sketch, and Student-t confidence intervals over
// replicated runs. Everything here is designed to merge deterministically:
// merged accumulators depend only on the multiset of samples (plus, for
// floating-point fields, the merge order the caller fixes), never on thread
// scheduling.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mra::wire {
class Cursor;
}

namespace mra::metrics {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction, Chan et
  /// al.). count/min/max merge exactly; mean/variance/sum agree with the
  /// concatenated stream up to floating-point rounding.
  void merge(const RunningStats& other);

  void reset() { *this = RunningStats{}; }

  /// One-line JSON object holding the full accumulator state. Doubles use
  /// %.17g (exact IEEE-754 round trip); non-finite values become the quoted
  /// tokens "inf"/"-inf"/"nan" so the output stays valid JSON. deserialize()
  /// restores a bit-identical accumulator: mean/variance/merge behave
  /// exactly as in the original (the fabric's cross-process merge invariant,
  /// DESIGN.md §15), and refuses any byte after the closing brace. read()
  /// reads one accumulator at the cursor, in place (a payload embeds one).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static RunningStats deserialize(std::string_view text);
  [[nodiscard]] static RunningStats read(wire::Cursor& c);

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mergeable streaming quantile sketch: a log-bucketed histogram in the
/// DDSketch family. Bucket i covers (gamma^(i-1), gamma^i] with
/// gamma = (1+alpha)/(1-alpha), so any in-range percentile estimate lands
/// inside the sample's own bucket — relative error is bounded by
/// gamma - 1 ≈ 2*alpha (2.02% at the default alpha = 0.01), independent of
/// the data range or sample count.
///
/// Coverage is [kMinTrackable, kMaxTrackable] plus a zero bucket for
/// [0, kMinTrackable]; negative samples count as underflow and values above
/// kMaxTrackable as overflow — both stay inside the percentile rank space
/// and answer with the exact tracked min/max, so tails are never silently
/// clamped. Non-finite samples are rejected and counted in `nonfinite()`.
///
/// Merging adds bucket counts, so merged percentiles are *bit-identical* to
/// a single-stream sketch of the concatenated samples, in any merge order —
/// the property the replicated-experiment layer builds on.
class QuantileSketch {
 public:
  /// Smallest/largest magnitudes resolved by their own bucket; chosen for
  /// millisecond-unit waiting times (1e-9 ms = 1 fs .. 1e12 ms ≈ 32 years).
  static constexpr double kMinTrackable = 1e-9;
  static constexpr double kMaxTrackable = 1e12;
  /// Finest accepted alpha: ~242k log buckets (~1.9 MB of counters).
  static constexpr double kMinAlpha = 1e-4;

  /// Throws std::invalid_argument unless kMinAlpha <= alpha < 1.
  explicit QuantileSketch(double alpha = 0.01);

  void add(double x);

  /// Adds `other`'s samples to this sketch. Throws std::invalid_argument if
  /// the relative-accuracy parameters differ (their buckets don't align).
  void merge(const QuantileSketch& other);

  /// Finite samples recorded (zero bucket + log buckets + under/overflow).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t nonfinite() const { return nonfinite_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Rank-interpolated percentile, p in [0, 100] (throws outside).
  /// Side-correct: the target rank is ceil(p/100 * count) clamped to
  /// [1, count], p=0 answers the exact minimum and p=100 the exact maximum;
  /// estimates are clamped to the observed [min, max]. Returns 0.0 on an
  /// empty sketch. Pure function of the counters, so merged sketches answer
  /// bit-identically to the concatenated stream.
  [[nodiscard]] double percentile(double p) const;

  void reset();

  /// One-line JSON object: alpha, counters, min/max, and the non-zero
  /// buckets as sparse [index, count] pairs (index 0 is the zero bucket).
  /// Doubles use %.17g, non-finite values the quoted tokens "inf"/"-inf"/
  /// "nan". deserialize() reconstructs a sketch whose percentile() and
  /// merge() results are bit-identical to the original's — the property the
  /// distributed fabric ships sketches across processes on (DESIGN.md §15).
  /// Throws std::invalid_argument on malformed input, and on a sketch that
  /// add() and merge() cannot produce: count other than underflow +
  /// overflow + the bucket counts, or min > max when count > 0; and on any
  /// byte after the closing brace. read() reads one sketch at the cursor, in
  /// place.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static QuantileSketch deserialize(std::string_view text);
  [[nodiscard]] static QuantileSketch read(wire::Cursor& c);

 private:
  [[nodiscard]] std::size_t bucket_index(double x) const;
  [[nodiscard]] double bucket_low(std::size_t idx) const;
  [[nodiscard]] double bucket_high(std::size_t idx) const;

  double alpha_;
  double gamma_;
  double log_gamma_;
  std::int32_t index_offset_ = 0;  ///< log-index of the first log bucket
  std::size_t num_buckets_ = 0;    ///< log buckets (excludes the zero bucket)
  /// counts_[0] is the zero bucket [0, kMinTrackable]; counts_[1 + i] is log
  /// bucket index_offset_ + i. Allocated lazily on first add so that empty
  /// sketches (default-constructed results) stay cheap to copy.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t nonfinite_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided 95% Student-t critical value t_{0.975, df} (df >= 1).
/// Exact table through df = 30, then interpolated in 1/df down to the
/// normal limit 1.960.
[[nodiscard]] double student_t95(std::uint64_t df);

/// A point estimate with a 95% confidence half-width.
struct Estimate {
  double mean = 0.0;
  /// Half-width of the 95% CI; NaN when fewer than two observations make
  /// an interval undefined (JSON export renders that as null).
  double ci95_half = std::numeric_limits<double>::quiet_NaN();

  [[nodiscard]] double lo() const { return mean - ci95_half; }
  [[nodiscard]] double hi() const { return mean + ci95_half; }
};

/// Student-t 95% confidence interval for the mean of the observations in
/// `per_rep` — one observation per independent replication.
[[nodiscard]] Estimate mean_ci95(const RunningStats& per_rep);

}  // namespace mra::metrics
