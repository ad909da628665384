// obs::Heartbeat — wall-clock run progress for long sweeps and explorer
// runs. A background thread wakes on a fixed interval, polls a caller
// snapshot function (typically reading a few atomics), prints a one-line
// status to stderr and (optionally) rewrites a machine-readable progress
// file atomically (write temp, rename), so external tooling can watch a
// multi-hour `mra_explore --exhaustive` without parsing logs.
//
// This is the one obs component allowed to touch the wall clock: heartbeat
// output never feeds a trace or a report, so the determinism contract of
// the recorder/exporter is untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace mra::obs {

/// What the poll function reports. Unknown totals (jobs_total == 0)
/// suppress the percent/ETA fields.
struct ProgressSnapshot {
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;  ///< subset of jobs_done that threw
  std::uint64_t jobs_total = 0;
  std::uint64_t schedules_executed = 0;  ///< exhaustive mode only
  std::uint64_t orderings_pruned = 0;    ///< exhaustive mode only
  std::uint64_t violations = 0;
};

class Heartbeat {
 public:
  struct Options {
    std::string phase;          ///< label printed on every line
    std::string progress_path;  ///< empty = stderr only
    double interval_sec = 2.0;
    bool to_stderr = true;
  };

  /// Starts ticking immediately. `poll` is called from the heartbeat thread
  /// and must be safe to invoke concurrently with the work it observes.
  Heartbeat(Options options, std::function<ProgressSnapshot()> poll);

  /// Emits one final tick (marked done in the progress file), then joins.
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  void run(const std::stop_token& stop);
  void tick(bool done);
  void write_progress_file(const ProgressSnapshot& snap, double elapsed_sec,
                           double eta_sec, bool done) const;

  Options options_;
  std::function<ProgressSnapshot()> poll_;
  std::chrono::steady_clock::time_point started_;
  std::mutex mutex_;  ///< serialises destructor's final tick vs the thread
  std::jthread thread_;
};

/// A heartbeat labelled `phase` over a job runner's done/failed counters
/// out of `total` jobs, writing `progress_path`; null when `progress_path`
/// is empty. The counters must outlive the heartbeat.
[[nodiscard]] std::unique_ptr<Heartbeat> job_heartbeat(
    std::string phase, const std::string& progress_path,
    const std::atomic<std::uint64_t>& done,
    const std::atomic<std::uint64_t>& failed, std::uint64_t total);

}  // namespace mra::obs
