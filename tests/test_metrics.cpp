// Metrics: streaming stats, quantile sketch, exact use-rate integration,
// collector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/collector.hpp"
#include "metrics/stats.hpp"
#include "metrics/usage.hpp"
#include "mutants.hpp"
#include "sim/random.hpp"

namespace mra::metrics {
namespace {

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  sim::Rng rng(5);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(-10, 10);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(3.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// Exact p-th percentile of a sample vector, nearest-rank definition — the
// same rank convention the sketch uses, so only the value quantization
// (bucket width) separates estimate from truth.
double exact_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size());
  return v[k - 1];
}

TEST(QuantileSketch, GoldenAgainstExactQuantiles) {
  // The sketch guarantees the estimate lands in the sample's own log
  // bucket: relative error < gamma - 1 = 2*alpha/(1-alpha).
  const double alpha = 0.01;
  const double bound = 2.0 * alpha / (1.0 - alpha);
  sim::Rng rng(42);
  struct Case {
    const char* name;
    std::function<double()> draw;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", [&]() { return rng.uniform_real(0.1, 100.0); }});
  cases.push_back({"exponential", [&]() { return rng.exponential(5.0); }});
  cases.push_back({"lognormal-ish", [&]() {
                     return std::exp(rng.uniform_real(-3.0, 8.0));
                   }});
  for (const auto& c : cases) {
    QuantileSketch sketch(alpha);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
      const double x = c.draw();
      samples.push_back(x);
      sketch.add(x);
    }
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
      const double exact = exact_percentile(samples, p);
      const double est = sketch.percentile(p);
      EXPECT_NEAR(est, exact, bound * exact + 1e-12)
          << c.name << " p" << p;
    }
  }
}

TEST(QuantileSketch, SmallCountsAndConstants) {
  QuantileSketch s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);  // empty
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
  QuantileSketch c;
  for (int i = 0; i < 1000; ++i) c.add(3.5);
  // A constant stream answers the constant exactly at every p (min/max
  // clamping, not bucket edges).
  EXPECT_DOUBLE_EQ(c.percentile(1), 3.5);
  EXPECT_DOUBLE_EQ(c.percentile(99), 3.5);
}

TEST(QuantileSketch, ZeroNegativeAndOverflowSamples) {
  QuantileSketch s;
  s.add(0.0);
  s.add(-5.0);
  s.add(2e12);  // above kMaxTrackable
  s.add(1.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.underflow(), 1u);
  EXPECT_EQ(s.overflow(), 1u);
  EXPECT_DOUBLE_EQ(s.percentile(0), -5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 2e12);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 2e12);
}

TEST(QuantileSketch, NonFiniteRejectedNotIndexed) {
  QuantileSketch s;
  s.add(std::numeric_limits<double>::quiet_NaN());
  s.add(std::numeric_limits<double>::infinity());
  s.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.nonfinite(), 3u);
  EXPECT_DOUBLE_EQ(s.percentile(99), 0.0);
  s.add(1.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.percentile(99), 1.0);
}

TEST(QuantileSketch, MergeBitMatchesConcatenatedStream) {
  sim::Rng rng(7);
  QuantileSketch whole;
  std::vector<QuantileSketch> parts(4);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.exponential(2.0);
    whole.add(x);
    parts[static_cast<std::size_t>(i % 4)].add(x);
  }
  // Merge in a deliberately scrambled order: bucket counts are integers, so
  // any merge order answers bit-identically to the single stream.
  QuantileSketch merged;
  for (std::size_t i : {2u, 0u, 3u, 1u}) merged.merge(parts[i]);
  EXPECT_EQ(merged.count(), whole.count());
  for (double p : {0.0, 10.0, 50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(merged.percentile(p), whole.percentile(p)) << "p" << p;
  }
}

TEST(QuantileSketch, MergeRejectsMismatchedAccuracy) {
  QuantileSketch a(0.01);
  QuantileSketch b(0.02);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(RunningStats, SerdeGoldensAndRoundTrip) {
  // Golden wire strings (%.17g doubles, non-finite as quoted tokens): the
  // fabric's cross-process payloads depend on this exact format.
  RunningStats empty;
  EXPECT_EQ(empty.serialize(),
            "{\"count\":0,\"mean\":0,\"m2\":0,\"sum\":0,"
            "\"min\":\"inf\",\"max\":\"-inf\"}");
  RunningStats two;
  two.add(1.0);
  two.add(2.0);
  EXPECT_EQ(two.serialize(),
            "{\"count\":2,\"mean\":1.5,\"m2\":0.5,\"sum\":3,"
            "\"min\":1,\"max\":2}");

  // Round trip is a fixed point even for awkward doubles...
  sim::Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 257; ++i) s.add(rng.exponential(1.0 / 3.0));
  const std::string wire = s.serialize();
  const RunningStats back = RunningStats::deserialize(wire);
  EXPECT_EQ(back.serialize(), wire);
  // ...and the restored accumulator is bit-identical in behaviour.
  EXPECT_EQ(back.count(), s.count());
  EXPECT_DOUBLE_EQ(back.mean(), s.mean());
  EXPECT_DOUBLE_EQ(back.variance(), s.variance());
  EXPECT_DOUBLE_EQ(back.min(), s.min());
  EXPECT_DOUBLE_EQ(back.max(), s.max());
  EXPECT_THROW((void)RunningStats::deserialize("{\"count\":x}"),
               std::invalid_argument);
}

TEST(QuantileSketch, SerdeGoldensAndRoundTrip) {
  QuantileSketch empty;
  EXPECT_EQ(empty.serialize(),
            "{\"alpha\":0.01,\"count\":0,\"underflow\":0,\"overflow\":0,"
            "\"nonfinite\":0,\"min\":\"inf\",\"max\":\"-inf\",\"buckets\":[]}");
  QuantileSketch mixed;
  mixed.add(0.0);  // zero bucket
  mixed.add(1.0);
  mixed.add(-5.0);   // underflow
  mixed.add(2e12);   // overflow (above kMaxTrackable)
  mixed.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(mixed.serialize(),
            "{\"alpha\":0.01,\"count\":4,\"underflow\":1,\"overflow\":1,"
            "\"nonfinite\":1,\"min\":-5,\"max\":2000000000000,"
            "\"buckets\":[[0,1],[1038,1]]}");

  const QuantileSketch back = QuantileSketch::deserialize(mixed.serialize());
  EXPECT_EQ(back.serialize(), mixed.serialize());
  for (double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(back.percentile(p), mixed.percentile(p)) << "p" << p;
  }
  EXPECT_THROW((void)QuantileSketch::deserialize("{\"alpha\":0.01}"),
               std::invalid_argument);
}

TEST(QuantileSketch, AlphaBelowFloorRejectedBeforeSizing) {
  // 1e-7 would size ~1.9 GB of counters on deserialize; at 1e-9 the bucket
  // index casts overflow int32. Both must fail with a named error first,
  // from the constructor and from a payload alike.
  for (const char* alpha : {"1e-07", "1e-09"}) {
    SCOPED_TRACE(alpha);
    try {
      (void)QuantileSketch(std::stod(alpha));
      ADD_FAILURE() << "constructor accepted alpha";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(alpha), std::string::npos)
          << e.what();
    }
    const std::string wire = std::string("{\"alpha\":") + alpha +
                             ",\"count\":1,\"underflow\":0,\"overflow\":0,"
                             "\"nonfinite\":0,\"min\":1,\"max\":1,"
                             "\"buckets\":[[1,1]]}";
    EXPECT_THROW((void)QuantileSketch::deserialize(wire),
                 std::invalid_argument);
  }

  // The floor itself still works and round-trips byte-identically.
  QuantileSketch fine(QuantileSketch::kMinAlpha);
  for (double x : {0.0, 1e-3, 0.5, 1.0, 2.5, 1e6}) fine.add(x);
  const std::string wire = fine.serialize();
  EXPECT_EQ(wire.rfind("{\"alpha\":0.0001,", 0), 0u) << wire;
  const QuantileSketch back = QuantileSketch::deserialize(wire);
  EXPECT_EQ(back.serialize(), wire);
  EXPECT_DOUBLE_EQ(back.percentile(50.0), fine.percentile(50.0));
}

std::string sketch_error(const std::string& wire) {
  try {
    (void)QuantileSketch::deserialize(wire);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "parsed";
}

TEST(QuantileSketch, DeserializeRefusesSketchesAddCannotMake) {
  // min > max used to deserialize, and percentile() then clamped with
  // hi < lo; a count that disagrees with the buckets sends the rank walk
  // past them. Each now fails, naming the field.
  const std::string head =
      "{\"alpha\":0.01,\"count\":3,\"underflow\":0,\"overflow\":0,"
      "\"nonfinite\":0,";
  EXPECT_NE(sketch_error(head + "\"min\":5,\"max\":1,\"buckets\":[[900,3]]}")
                .find("min"),
            std::string::npos);
  EXPECT_NE(sketch_error(head + "\"min\":\"nan\",\"max\":1,"
                                "\"buckets\":[[900,3]]}")
                .find("min"),
            std::string::npos);
  EXPECT_NE(sketch_error(head + "\"min\":1,\"max\":5,\"buckets\":[[900,2]]}")
                .find("count 3"),
            std::string::npos);
  EXPECT_NE(sketch_error(head + "\"min\":1,\"max\":5,"
                                "\"buckets\":[[900,2],[901,2]]}")
                .find("count 3"),
            std::string::npos);
  // underflow + overflow wraps to the count: still refused.
  EXPECT_NE(sketch_error("{\"alpha\":0.01,\"count\":1,"
                         "\"underflow\":18446744073709551615,\"overflow\":2,"
                         "\"nonfinite\":0,\"min\":1,\"max\":1,\"buckets\":[]}")
                .find("count 1"),
            std::string::npos);
  // An empty sketch's min/max are its +inf/-inf sentinels: accepted.
  EXPECT_EQ(sketch_error(QuantileSketch().serialize()), "parsed");
  EXPECT_EQ(sketch_error(head + "\"min\":1,\"max\":5,"
                                "\"buckets\":[[900,2],[901,1]]}"),
            "parsed");
}

TEST(MetricsSerde, RunningStatsRefusesTrailingBytes) {
  RunningStats stats;
  for (const double x : {1.0, 2.5, 4.0}) stats.add(x);
  const std::string wire = stats.serialize();
  for (const std::string tail : {"garbage", "}", " "}) {
    EXPECT_THROW((void)RunningStats::deserialize(wire + tail),
                 std::invalid_argument)
        << tail;
  }
  EXPECT_EQ(RunningStats::deserialize(wire).serialize(), wire);
}

TEST(MetricsSerde, QuantileSketchRefusesTrailingBytes) {
  QuantileSketch sketch;
  for (const double x : {1.0, 2.5, 4.0}) sketch.add(x);
  const std::string wire = sketch.serialize();
  for (const std::string tail : {"garbage", "]}", " "}) {
    EXPECT_THROW((void)QuantileSketch::deserialize(wire + tail),
                 std::invalid_argument)
        << tail;
  }
  EXPECT_THROW((void)QuantileSketch::deserialize(
                   QuantileSketch().serialize() + "garbage"),
               std::invalid_argument);
  EXPECT_EQ(QuantileSketch::deserialize(wire).serialize(), wire);
}

TEST(MetricsSerde, MutantsThrowOrRoundTrip) {
  // The fabric's payloads: each mutant of a serialized sketch or running
  // statistic is refused with invalid_argument, or deserializes to a value
  // that serializes and reads back to the same bytes. A sketch that parses
  // answers every percentile inside its own [min, max].
  constexpr std::string_view kPayloadBytes = "0159-+.e,:[]{}\"nx";
  sim::Rng samples(29);
  QuantileSketch sketch;
  RunningStats stats;
  for (int i = 0; i < 200; ++i) {
    const double x = samples.exponential(1.0 / 4.0);
    sketch.add(x);
    stats.add(x);
  }
  for (const double x : {0.0, -3.0, 5e12}) sketch.add(x);
  sketch.add(std::numeric_limits<double>::quiet_NaN());

  std::size_t parsed = 0;
  for (const std::string& mutant :
       test::mutants_of(sketch.serialize(), kPayloadBytes, 31)) {
    QuantileSketch once;
    try {
      once = QuantileSketch::deserialize(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    const std::string wire = once.serialize();
    EXPECT_EQ(QuantileSketch::deserialize(wire).serialize(), wire) << mutant;
    for (const double p : {1.0, 50.0, 99.0}) {
      const double v = once.percentile(p);
      EXPECT_TRUE(once.min() <= v && v <= once.max()) << mutant << " p" << p;
    }
  }
  EXPECT_GT(parsed, 0u);

  parsed = 0;
  for (const std::string& mutant :
       test::mutants_of(stats.serialize(), kPayloadBytes, 37)) {
    RunningStats once;
    try {
      once = RunningStats::deserialize(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    const std::string wire = once.serialize();
    EXPECT_EQ(RunningStats::deserialize(wire).serialize(), wire) << mutant;
  }
  EXPECT_GT(parsed, 0u);
}

TEST(QuantileSketch, PartitionMergeInvariance) {
  // The fabric's merge invariant as a property test: for ANY partition of a
  // sample stream into shards — contiguous ranges like job leases, shipped
  // through serialize/deserialize like worker payloads, merged in any order
  // — the pooled sketch answers every percentile bit-identically to the
  // sketch that saw the whole stream.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    sim::Rng rng(100 + trial);
    const int n = 4000;
    std::vector<double> samples;
    QuantileSketch whole;
    for (int i = 0; i < n; ++i) {
      // A tail-heavy mix with zeros and negatives, like real waiting times
      // plus sentinel values.
      double x = rng.exponential(0.5);
      if (i % 97 == 0) x = 0.0;
      if (i % 131 == 0) x = -x;
      samples.push_back(x);
      whole.add(x);
    }

    // Random contiguous partition into 1..13 shards.
    const auto shards = static_cast<std::size_t>(rng.uniform_int(1, 13));
    std::vector<std::size_t> cuts = {0, samples.size()};
    for (std::size_t s = 1; s < shards; ++s) {
      cuts.push_back(static_cast<std::size_t>(rng.uniform_int(0, n - 1)));
    }
    std::sort(cuts.begin(), cuts.end());

    std::vector<std::string> wires;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      QuantileSketch shard;
      for (std::size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        shard.add(samples[i]);
      }
      wires.push_back(shard.serialize());
    }
    // Merge the deserialized shards back-to-front — order must not matter.
    QuantileSketch merged;
    for (auto it = wires.rbegin(); it != wires.rend(); ++it) {
      merged.merge(QuantileSketch::deserialize(*it));
    }

    EXPECT_EQ(merged.count(), whole.count()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(merged.min(), whole.min()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(merged.max(), whole.max()) << "trial " << trial;
    for (double p : {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0}) {
      EXPECT_DOUBLE_EQ(merged.percentile(p), whole.percentile(p))
          << "trial " << trial << " p" << p;
    }
  }
}

TEST(StudentT, GoldenCriticalValues) {
  EXPECT_NEAR(student_t95(1), 12.706, 1e-9);
  EXPECT_NEAR(student_t95(4), 2.776, 1e-9);
  EXPECT_NEAR(student_t95(30), 2.042, 1e-9);
  EXPECT_NEAR(student_t95(40), 2.021, 1e-3);
  EXPECT_NEAR(student_t95(1000), 1.962, 5e-3);
  EXPECT_THROW((void)student_t95(0), std::invalid_argument);
  for (std::uint64_t df = 1; df < 200; ++df) {
    EXPECT_GE(student_t95(df), student_t95(df + 1)) << "df " << df;
    EXPECT_GT(student_t95(df + 1), 1.959) << "df " << df;
  }
}

TEST(StudentT, MeanCi95MatchesHandComputation) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  const Estimate e = mean_ci95(s);
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  // t_{0.975,4} * s / sqrt(n) = 2.776 * 1.58114 / 2.23607
  EXPECT_NEAR(e.ci95_half, 1.9629, 1e-3);
  EXPECT_NEAR(e.lo(), 3.0 - 1.9629, 1e-3);
  EXPECT_NEAR(e.hi(), 3.0 + 1.9629, 1e-3);
}

TEST(StudentT, SingleObservationHasNoInterval) {
  RunningStats s;
  s.add(3.0);
  const Estimate e = mean_ci95(s);
  EXPECT_DOUBLE_EQ(e.mean, 3.0);
  EXPECT_TRUE(std::isnan(e.ci95_half));
}

TEST(UsageTracker, ExactIntegration) {
  UsageTracker u(4);
  ResourceSet a(4, {0, 1});
  ResourceSet b(4, {2});
  u.on_acquire(100, a);
  u.on_release(300, a);  // 2 resources x 200 = 400
  u.on_acquire(200, b);
  u.on_release(250, b);  // 1 x 50 = 50
  EXPECT_DOUBLE_EQ(u.busy_integral(1000), 450.0);
  EXPECT_DOUBLE_EQ(u.use_rate(1000), 450.0 / (1000.0 * 4.0));
}

TEST(UsageTracker, InFlightIntervalCountsUpToNow) {
  UsageTracker u(2);
  ResourceSet a(2, {0});
  u.on_acquire(10, a);
  EXPECT_DOUBLE_EQ(u.busy_integral(110), 100.0);
  EXPECT_DOUBLE_EQ(u.use_rate(110), 100.0 / (110.0 * 2.0));
}

TEST(UsageTracker, ResetCutsWindowButKeepsInFlight) {
  UsageTracker u(1);
  ResourceSet a(1, {0});
  u.on_acquire(0, a);
  u.reset(100);  // warm-up cut while resource busy
  u.on_release(150, a);
  // Only [100, 150] counts, window starts at 100.
  EXPECT_DOUBLE_EQ(u.busy_integral(200), 50.0);
  EXPECT_DOUBLE_EQ(u.use_rate(200), 50.0 / 100.0);
}

TEST(Collector, WaitingTimesAndSizeBuckets) {
  Collector c(/*num_resources=*/10, /*size_buckets=*/2);
  c.set_max_size(4);
  ResourceSet small(10, {0});
  ResourceSet large(10, {1, 2, 3});

  c.on_issue(0, /*site=*/0, 1, small);
  c.on_grant(sim::from_ms(2), 0, 1, small);   // wait 2 ms, size 1 -> bucket 0
  c.on_release(sim::from_ms(3), 0, 1, small);

  c.on_issue(0, /*site=*/1, 1, large);
  c.on_grant(sim::from_ms(10), 1, 1, large);  // wait 10 ms, size 3 -> bucket 1
  c.on_release(sim::from_ms(12), 1, 1, large);

  EXPECT_EQ(c.completed(), 2u);
  EXPECT_DOUBLE_EQ(c.waiting().mean(), 6.0);
  EXPECT_EQ(c.waiting_by_size()[0].count(), 1u);
  EXPECT_DOUBLE_EQ(c.waiting_by_size()[0].mean(), 2.0);
  EXPECT_EQ(c.waiting_by_size()[1].count(), 1u);
  EXPECT_DOUBLE_EQ(c.waiting_by_size()[1].mean(), 10.0);
}

TEST(Collector, ResetExcludesEarlierRequests) {
  Collector c(4, 1);
  c.set_max_size(4);
  ResourceSet rs(4, {0});
  c.on_issue(0, 0, 1, rs);
  c.reset(sim::from_ms(1));  // cut after issue, before grant
  c.on_grant(sim::from_ms(5), 0, 1, rs);
  c.on_release(sim::from_ms(6), 0, 1, rs);
  EXPECT_EQ(c.waiting().count(), 0u)
      << "requests issued before the cut must not enter waiting stats";
  // A request fully inside the window counts.
  c.on_issue(sim::from_ms(7), 0, 2, rs);
  c.on_grant(sim::from_ms(9), 0, 2, rs);
  c.on_release(sim::from_ms(10), 0, 2, rs);
  EXPECT_EQ(c.waiting().count(), 1u);
  EXPECT_DOUBLE_EQ(c.waiting().mean(), 2.0);
}

}  // namespace
}  // namespace mra::metrics
