// Replicated experiments: N independent repetitions of one configuration,
// each on its own deterministic RNG substream, reduced to mean ± 95%
// confidence intervals (Student-t over per-replication values) and tail
// quantiles (merged waiting-time sketch). This is the layer every figure
// reports through when error bars are requested (--reps N on the fig5/fig6
// benches and the scenario CLI).
//
// Determinism: replication r of base seed S always runs on
// replication_seed(S, r), and per-rep results are merged in replication
// order — so a replicated sweep produces byte-identical output whether it
// ran on 1 thread or 64.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "experiment/experiment.hpp"
#include "metrics/stats.hpp"

namespace mra::experiment {

/// Deterministic, independent per-replication seed. Replication 0 is the
/// base seed itself — a single-replication run is bit-identical to the
/// plain run — and later replications are splitmix64 expansions of
/// (base_seed, rep), so substreams never depend on thread count or
/// execution order.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base_seed,
                                             std::size_t rep);

/// Cross-replication summary. Scalar metrics carry the mean over
/// per-replication values with a Student-t 95% half-width (NaN when
/// replications < 2); tail quantiles come from the merged waiting-time
/// sketch, i.e. they are quantiles of the pooled samples of all
/// replications, bit-identical to one long concatenated run.
struct ReplicatedResult {
  std::string algorithm;
  int phi = 0;
  double rho = 0.0;
  std::size_t replications = 0;

  metrics::Estimate use_rate;
  metrics::Estimate waiting_mean_ms;
  metrics::Estimate messages_per_cs;

  double waiting_p50_ms = 0.0;
  double waiting_p95_ms = 0.0;
  double waiting_p99_ms = 0.0;

  /// Pooled sample-level waiting stats (RunningStats::merge over reps, in
  /// replication order) — source of the pooled stddev.
  metrics::RunningStats waiting_pooled;
  /// Merged waiting-time sketch (source of the tail quantiles above).
  metrics::QuantileSketch waiting_sketch;

  // Totals over all replications.
  std::uint64_t requests_completed = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t loans_used = 0;
  std::uint64_t loans_failed = 0;
};

/// Reduces per-replication results (in replication order) to a
/// ReplicatedResult. Throws std::invalid_argument on an empty input.
/// (A span, so sweep code can merge slices of one results vector without
/// copying — each ExperimentResult carries a multi-KB sketch.)
[[nodiscard]] ReplicatedResult merge_replications(
    std::span<const ExperimentResult> reps);

/// One run to repeat `replications` times: `make` is called once per
/// replication with that replication's substream seed,
/// replication_seed(base_seed, r) — typically a scenario::run_scenario call
/// with the spec's system.seed set to it.
struct ReplicatedJob {
  std::function<ExperimentResult(std::uint64_t rep_seed)> make;
  std::uint64_t base_seed = 1;
  std::size_t replications = 1;
};

/// All jobs × replications fan out through one run_sweep pool (maximum
/// parallelism), then each job's reps merge in replication order.
/// results[i] summarizes jobs[i].
[[nodiscard]] std::vector<ReplicatedResult> run_replicated_jobs(
    const std::vector<ReplicatedJob>& jobs, unsigned threads = 0);

/// Same, bumping `reps_done` (relaxed) once per finished replication — the
/// unit an obs::Heartbeat should report, since each replication is one
/// simulation — and `reps_failed` once per throwing replication (heartbeats
/// surface failures live; the SweepError still only fires after the pool
/// drains). Null pointers behave exactly like the plain overload.
[[nodiscard]] std::vector<ReplicatedResult> run_replicated_jobs(
    const std::vector<ReplicatedJob>& jobs, unsigned threads,
    std::atomic<std::uint64_t>* reps_done,
    std::atomic<std::uint64_t>* reps_failed = nullptr);

}  // namespace mra::experiment
