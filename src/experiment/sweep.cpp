#include "experiment/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace mra::experiment {

namespace {

std::string sweep_error_message(std::size_t job_index, std::size_t job_count,
                                std::size_t failed_count,
                                const std::string& cause) {
  std::string msg = "sweep job #" + std::to_string(job_index) + " of " +
                    std::to_string(job_count) + " failed";
  if (failed_count > 1) {
    msg += " (" + std::to_string(failed_count) + " job(s) failed in total)";
  }
  msg += ": " + cause;
  return msg;
}

}  // namespace

SweepError::SweepError(std::size_t job_index, std::size_t job_count,
                       std::size_t failed_count, const std::string& cause)
    : std::runtime_error(
          sweep_error_message(job_index, job_count, failed_count, cause)),
      job_index_(job_index),
      failed_count_(failed_count) {}

std::vector<ExperimentResult> run_sweep(const std::vector<SweepJob>& jobs,
                                        unsigned threads) {
  return run_sweep(jobs, threads, nullptr);
}

std::vector<ExperimentResult> run_sweep(
    const std::vector<SweepJob>& jobs, unsigned threads,
    std::atomic<std::uint64_t>* jobs_done,
    std::atomic<std::uint64_t>* jobs_failed) {
  std::vector<ExperimentResult> results(jobs.size());
  if (jobs.empty()) return results;

  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 4;
  if (threads > jobs.size()) threads = static_cast<unsigned>(jobs.size());

  std::atomic<std::size_t> next{0};
  // Keep the *lowest-index* failure, not the first in wall-clock order:
  // which job loses a race depends on scheduling, the reported index must
  // not.
  std::size_t error_index = jobs.size();
  std::exception_ptr error;
  std::size_t failed = 0;
  std::mutex error_mutex;

  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = jobs[i]();
      } catch (...) {
        if (jobs_failed != nullptr) {
          jobs_failed->fetch_add(1, std::memory_order_relaxed);
        }
        std::scoped_lock lock(error_mutex);
        ++failed;
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      if (jobs_done != nullptr) {
        jobs_done->fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  }  // joins

  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      throw SweepError(error_index, jobs.size(), failed, e.what());
    } catch (...) {
      throw SweepError(error_index, jobs.size(), failed,
                       "unknown exception type");
    }
  }
  return results;
}

}  // namespace mra::experiment
