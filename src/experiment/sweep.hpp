// Parallel parameter sweeps.
//
// Each run is an independent, single-threaded simulation, so a sweep is
// embarrassingly parallel: a fixed pool of std::jthread workers pulls jobs
// from an atomic counter. Results land at their job's index, so the output
// order is deterministic regardless of scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"

namespace mra::experiment {

/// One unit of sweep work: any callable producing an ExperimentResult —
/// typically one scenario::run_scenario call.
using SweepJob = std::function<ExperimentResult()>;

/// Thrown by run_sweep when at least one job failed. Identifies the failing
/// job (the lowest-index failure, which is stable across scheduling) and
/// carries its message plus the total failure count; what() reads e.g.
/// "sweep job #3 of 12 failed (2 job(s) failed in total): <cause>".
class SweepError : public std::runtime_error {
 public:
  SweepError(std::size_t job_index, std::size_t job_count,
             std::size_t failed_count, const std::string& cause);

  [[nodiscard]] std::size_t job_index() const { return job_index_; }
  [[nodiscard]] std::size_t failed_count() const { return failed_count_; }

 private:
  std::size_t job_index_;
  std::size_t failed_count_;
};

/// Runs all jobs, using up to `threads` workers (0 = hardware concurrency).
/// Results land at their job's index, so the output order is deterministic
/// regardless of scheduling.
///
/// Error contract: the pool always drains — a throwing job never cancels
/// the others — and afterwards a SweepError for the lowest-index failure is
/// thrown. No partial results escape: the output vector is discarded on
/// throw, so callers never see a default-constructed ExperimentResult
/// standing in for a failed run.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(
    const std::vector<SweepJob>& jobs, unsigned threads = 0);

/// Same, bumping `jobs_done` (relaxed) after each finished job — including
/// failed ones — so an obs::Heartbeat polling it reports live progress.
/// `jobs_failed` (when non-null) is bumped once per throwing job, so the
/// heartbeat can surface failures while the pool keeps draining (the
/// SweepError only fires after the last job). Null pointers behave exactly
/// like the plain overload.
[[nodiscard]] std::vector<ExperimentResult> run_sweep(
    const std::vector<SweepJob>& jobs, unsigned threads,
    std::atomic<std::uint64_t>* jobs_done,
    std::atomic<std::uint64_t>* jobs_failed = nullptr);

}  // namespace mra::experiment
