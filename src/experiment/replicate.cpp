#include "experiment/replicate.hpp"

#include <stdexcept>

#include "experiment/sweep.hpp"
#include "sim/random.hpp"

namespace mra::experiment {

std::uint64_t replication_seed(std::uint64_t base_seed, std::size_t rep) {
  if (rep == 0) return base_seed;
  // splitmix64 was designed exactly for this: expanding one seed into
  // statistically independent substreams. Mixing the replication index into
  // the state keeps substreams stable under any execution order.
  std::uint64_t state =
      base_seed ^ (static_cast<std::uint64_t>(rep) * 0xD1B54A32D192ED03ULL);
  std::uint64_t seed = sim::splitmix64(state);
  // A substream colliding with the base seed would silently duplicate
  // replication 0; the extra round costs nothing and rules it out.
  if (seed == base_seed) seed = sim::splitmix64(state);
  return seed;
}

ReplicatedResult merge_replications(std::span<const ExperimentResult> reps) {
  if (reps.empty()) {
    throw std::invalid_argument("merge_replications: no replications");
  }
  ReplicatedResult out;
  out.algorithm = reps.front().algorithm;
  out.phi = reps.front().phi;
  out.rho = reps.front().rho;
  out.replications = reps.size();

  metrics::RunningStats use_rate;
  metrics::RunningStats waiting_mean;
  metrics::RunningStats messages_per_cs;
  for (const ExperimentResult& r : reps) {
    use_rate.add(r.use_rate);
    waiting_mean.add(r.waiting_mean_ms);
    messages_per_cs.add(r.messages_per_cs);
    out.waiting_pooled.merge(r.waiting_stats);
    out.waiting_sketch.merge(r.waiting_sketch);
    out.requests_completed += r.requests_completed;
    out.messages += r.messages;
    out.bytes += r.bytes;
    out.loans_used += r.loans_used;
    out.loans_failed += r.loans_failed;
  }
  out.use_rate = metrics::mean_ci95(use_rate);
  out.waiting_mean_ms = metrics::mean_ci95(waiting_mean);
  out.messages_per_cs = metrics::mean_ci95(messages_per_cs);
  out.waiting_p50_ms = out.waiting_sketch.percentile(50);
  out.waiting_p95_ms = out.waiting_sketch.percentile(95);
  out.waiting_p99_ms = out.waiting_sketch.percentile(99);
  return out;
}

std::vector<ReplicatedResult> run_replicated_jobs(
    const std::vector<ReplicatedJob>& jobs, unsigned threads) {
  return run_replicated_jobs(jobs, threads, nullptr);
}

std::vector<ReplicatedResult> run_replicated_jobs(
    const std::vector<ReplicatedJob>& jobs, unsigned threads,
    std::atomic<std::uint64_t>* reps_done,
    std::atomic<std::uint64_t>* reps_failed) {
  std::vector<SweepJob> flat;
  for (const ReplicatedJob& job : jobs) {
    if (job.replications == 0) {
      throw std::invalid_argument(
          "run_replicated_jobs: replications must be >= 1");
    }
    for (std::size_t rep = 0; rep < job.replications; ++rep) {
      const std::uint64_t seed = replication_seed(job.base_seed, rep);
      flat.emplace_back([make = job.make, seed]() { return make(seed); });
    }
  }
  // Each flattened sweep job is exactly one replication, so the pool's
  // jobs_done/jobs_failed counters are the replication counters.
  const std::vector<ExperimentResult> results =
      run_sweep(flat, threads, reps_done, reps_failed);

  std::vector<ReplicatedResult> merged;
  merged.reserve(jobs.size());
  std::size_t offset = 0;
  for (const ReplicatedJob& job : jobs) {
    merged.push_back(merge_replications(
        std::span(results).subspan(offset, job.replications)));
    offset += job.replications;
  }
  return merged;
}

}  // namespace mra::experiment
