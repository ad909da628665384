// Replicated experiments: substream derivation, merge exactness, thread-count
// determinism (including byte-identical JSON), and run_sweep error reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/json.hpp"
#include "experiment/replicate.hpp"
#include "experiment/sweep.hpp"
#include "scenario/runner.hpp"

namespace mra::experiment {
namespace {

/// One small LASS-with-loan run at `seed`.
ExperimentResult run_small(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.system.num_sites = 6;
  spec.system.num_resources = 8;
  spec.system.seed = seed;
  spec.workload = workload::high_load(3, 8);
  spec.warmup = sim::from_ms(100);
  spec.measure = sim::from_ms(1000);
  return scenario::run_scenario(spec, algo::Algorithm::kLassWithLoan);
}

/// `replications` reps of run_small from base seed `seed`.
ReplicatedJob small_job(std::uint64_t seed, std::size_t replications) {
  ReplicatedJob job;
  job.base_seed = seed;
  job.replications = replications;
  job.make = run_small;
  return job;
}

TEST(ReplicationSeed, Rep0IsBaseSeedAndSubstreamsAreDistinct) {
  EXPECT_EQ(replication_seed(1, 0), 1u);
  EXPECT_EQ(replication_seed(0xDEADBEEF, 0), 0xDEADBEEFu);
  // Substreams must be pairwise distinct and never collide with the base
  // seed (a collision would silently duplicate replication 0).
  for (std::uint64_t base : {1ULL, 2ULL, 42ULL, 0xDEADBEEFULL}) {
    for (std::size_t i = 0; i < 32; ++i) {
      for (std::size_t j = i + 1; j < 32; ++j) {
        EXPECT_NE(replication_seed(base, i), replication_seed(base, j))
            << "base " << base << " reps " << i << "," << j;
      }
    }
  }
}

TEST(ReplicationSeed, StableAcrossCalls) {
  for (std::size_t rep = 0; rep < 8; ++rep) {
    EXPECT_EQ(replication_seed(7, rep), replication_seed(7, rep));
  }
}

TEST(Replication, SubstreamsProduceIndependentRuns) {
  const auto a = run_small(replication_seed(4, 0));
  const auto b = run_small(replication_seed(4, 1));
  const auto c = run_small(replication_seed(4, 2));
  EXPECT_NE(a.messages, b.messages);
  EXPECT_NE(b.messages, c.messages);
}

TEST(Replication, MergeMatchesManualReduction) {
  std::vector<ExperimentResult> reps;
  metrics::RunningStats use_rate;
  std::uint64_t completed = 0;
  for (std::size_t r = 0; r < 4; ++r) {
    reps.push_back(run_small(replication_seed(9, r)));
    use_rate.add(reps.back().use_rate);
    completed += reps.back().requests_completed;
  }
  const ReplicatedResult merged = merge_replications(reps);
  EXPECT_EQ(merged.replications, 4u);
  EXPECT_DOUBLE_EQ(merged.use_rate.mean, use_rate.mean());
  EXPECT_FALSE(std::isnan(merged.use_rate.ci95_half));
  EXPECT_GT(merged.use_rate.ci95_half, 0.0);
  EXPECT_EQ(merged.requests_completed, completed);
  // Pooled waiting stats cover every sample of every replication.
  std::uint64_t samples = 0;
  for (const auto& r : reps) samples += r.waiting_stats.count();
  EXPECT_EQ(merged.waiting_pooled.count(), samples);
  EXPECT_EQ(merged.waiting_sketch.count(), samples);
  // Tail order must hold on the merged sketch.
  EXPECT_LE(merged.waiting_p50_ms, merged.waiting_p95_ms);
  EXPECT_LE(merged.waiting_p95_ms, merged.waiting_p99_ms);
}

TEST(Replication, MergedSketchBitMatchesConcatenatedSamples) {
  // Sketch merging is integer bucket addition: percentiles of the merged
  // per-rep sketches must be bit-identical to one sketch fed every sample.
  std::vector<ExperimentResult> reps;
  for (std::size_t r = 0; r < 3; ++r) {
    reps.push_back(run_small(replication_seed(11, r)));
  }
  const ReplicatedResult merged = merge_replications(reps);
  metrics::QuantileSketch concatenated;
  for (const auto& r : reps) concatenated.merge(r.waiting_sketch);
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(merged.waiting_sketch.percentile(p),
                     concatenated.percentile(p));
  }
  // RunningStats::merge: counts and extrema are exact; moments match the
  // concatenated stream to floating-point rounding.
  metrics::RunningStats pooled;
  for (const auto& r : reps) pooled.merge(r.waiting_stats);
  EXPECT_EQ(merged.waiting_pooled.count(), pooled.count());
  EXPECT_DOUBLE_EQ(merged.waiting_pooled.min(), pooled.min());
  EXPECT_DOUBLE_EQ(merged.waiting_pooled.max(), pooled.max());
  EXPECT_NEAR(merged.waiting_pooled.mean(), pooled.mean(),
              1e-12 * std::abs(pooled.mean()));
}

TEST(Replication, DeterministicAcrossThreadCounts) {
  const ReplicatedJob job = small_job(5, /*replications=*/4);
  const ReplicatedResult serial =
      run_replicated_jobs({job}, /*threads=*/1).front();
  const ReplicatedResult parallel =
      run_replicated_jobs({job}, /*threads=*/4).front();
  EXPECT_EQ(serial.replications, parallel.replications);
  EXPECT_DOUBLE_EQ(serial.use_rate.mean, parallel.use_rate.mean);
  EXPECT_DOUBLE_EQ(serial.use_rate.ci95_half, parallel.use_rate.ci95_half);
  EXPECT_DOUBLE_EQ(serial.waiting_mean_ms.mean, parallel.waiting_mean_ms.mean);
  EXPECT_DOUBLE_EQ(serial.waiting_mean_ms.ci95_half,
                   parallel.waiting_mean_ms.ci95_half);
  EXPECT_DOUBLE_EQ(serial.waiting_p50_ms, parallel.waiting_p50_ms);
  EXPECT_DOUBLE_EQ(serial.waiting_p95_ms, parallel.waiting_p95_ms);
  EXPECT_DOUBLE_EQ(serial.waiting_p99_ms, parallel.waiting_p99_ms);
  EXPECT_EQ(serial.requests_completed, parallel.requests_completed);
  EXPECT_EQ(serial.messages, parallel.messages);

  // The acceptance-criterion form: the exported JSON is byte-identical.
  std::ostringstream a;
  std::ostringstream b;
  write_replicated_json(a, "test", {LabeledReplicatedResult{"x", serial}});
  write_replicated_json(b, "test", {LabeledReplicatedResult{"x", parallel}});
  EXPECT_EQ(a.str(), b.str());
}

TEST(Replication, SingleRepMatchesPlainRunAndHasNoInterval) {
  const ReplicatedResult one = run_replicated_jobs({small_job(4, 1)}).front();
  const ExperimentResult plain = run_small(4);
  EXPECT_EQ(one.replications, 1u);
  EXPECT_DOUBLE_EQ(one.use_rate.mean, plain.use_rate);
  EXPECT_DOUBLE_EQ(one.waiting_mean_ms.mean, plain.waiting_mean_ms);
  EXPECT_EQ(one.requests_completed, plain.requests_completed);
  EXPECT_TRUE(std::isnan(one.use_rate.ci95_half));
}

TEST(Replication, JobsVariantThreadsSubstreamSeeds) {
  std::vector<std::uint64_t> seen;
  std::mutex mu;
  ReplicatedJob job;
  job.base_seed = 21;
  job.replications = 3;
  job.make = [&](std::uint64_t rep_seed) {
    {
      std::scoped_lock lock(mu);
      seen.push_back(rep_seed);
    }
    return run_small(rep_seed);
  };
  const auto merged = run_replicated_jobs({job}, /*threads=*/1);
  ASSERT_EQ(merged.size(), 1u);
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(seen[r], replication_seed(21, r));
  }
}

TEST(Replication, RejectsZeroReplications) {
  ReplicatedJob job;
  job.base_seed = 1;
  job.replications = 0;
  job.make = [](std::uint64_t seed) {
    return run_small(seed);
  };
  EXPECT_THROW((void)run_replicated_jobs({job}), std::invalid_argument);
  EXPECT_THROW((void)merge_replications({}), std::invalid_argument);
}

TEST(SweepErrors, ReportsLowestFailingJobIndexAndCount) {
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < 6; ++i) {
    jobs.emplace_back([i]() -> ExperimentResult {
      if (i == 2 || i == 4) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
      return run_small(i + 1);
    });
  }
  try {
    (void)run_sweep(jobs, /*threads=*/3);
    FAIL() << "run_sweep must throw when a job fails";
  } catch (const SweepError& e) {
    EXPECT_EQ(e.job_index(), 2u);
    EXPECT_EQ(e.failed_count(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep job #2 of 6"), std::string::npos) << what;
    EXPECT_NE(what.find("boom at 2"), std::string::npos) << what;
  }
}

TEST(SweepErrors, AllJobsRunDespiteEarlyFailure) {
  // The pool must drain: a throwing job never cancels the rest.
  std::atomic<int> ran{0};
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) {
    jobs.emplace_back([i, &ran]() -> ExperimentResult {
      ++ran;
      if (i == 0) throw std::runtime_error("first job fails");
      return run_small(i + 1);
    });
  }
  EXPECT_THROW((void)run_sweep(jobs, /*threads=*/2), SweepError);
  EXPECT_EQ(ran.load(), 5);
}

}  // namespace
}  // namespace mra::experiment
