#include "obs/heartbeat.hpp"

#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <utility>

#include "core/wire.hpp"

namespace mra::obs {
namespace {

// Stop-token-aware sleep: wakes early when the heartbeat is being torn down
// so the destructor never waits out a full interval.
void interruptible_sleep(const std::stop_token& stop, double seconds) {
  std::mutex m;
  std::condition_variable_any cv;
  std::unique_lock<std::mutex> lock(m);
  cv.wait_for(lock, stop, std::chrono::duration<double>(seconds),
              [&stop] { return stop.stop_requested(); });
}

}  // namespace

Heartbeat::Heartbeat(Options options, std::function<ProgressSnapshot()> poll)
    : options_(std::move(options)),
      poll_(std::move(poll)),
      started_(std::chrono::steady_clock::now()),
      thread_([this](const std::stop_token& stop) { run(stop); }) {}

Heartbeat::~Heartbeat() {
  thread_.request_stop();
  thread_.join();
  try {
    tick(/*done=*/true);
  } catch (...) {
    // The final tick runs the caller's poll callback; progress reporting is
    // best-effort and must never turn teardown into std::terminate.
  }
}

void Heartbeat::run(const std::stop_token& stop) {
  while (true) {
    interruptible_sleep(stop, options_.interval_sec);
    if (stop.stop_requested()) return;
    tick(/*done=*/false);
  }
}

void Heartbeat::tick(bool done) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ProgressSnapshot snap = poll_();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  double eta = -1.0;
  if (snap.jobs_total > 0 && snap.jobs_done > 0 &&
      snap.jobs_done < snap.jobs_total) {
    eta = elapsed / static_cast<double>(snap.jobs_done) *
          static_cast<double>(snap.jobs_total - snap.jobs_done);
  }
  if (done) eta = 0.0;

  if (options_.to_stderr) {
    std::fprintf(stderr, "[%s]", options_.phase.c_str());
    if (snap.jobs_total > 0) {
      std::fprintf(stderr, " %" PRIu64 "/%" PRIu64 " jobs (%.1f%%)",
                   snap.jobs_done, snap.jobs_total,
                   100.0 * static_cast<double>(snap.jobs_done) /
                       static_cast<double>(snap.jobs_total));
    } else {
      std::fprintf(stderr, " %" PRIu64 " jobs", snap.jobs_done);
    }
    if (snap.jobs_failed > 0) {
      std::fprintf(stderr, " failed=%" PRIu64, snap.jobs_failed);
    }
    if (snap.schedules_executed > 0) {
      std::fprintf(stderr, " schedules=%" PRIu64 " pruned=%" PRIu64,
                   snap.schedules_executed, snap.orderings_pruned);
    }
    if (snap.violations > 0) {
      std::fprintf(stderr, " violations=%" PRIu64, snap.violations);
    }
    std::fprintf(stderr, " elapsed=%.1fs", elapsed);
    if (eta >= 0.0 && !done) std::fprintf(stderr, " eta=%.1fs", eta);
    if (done) std::fprintf(stderr, " done");
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

  if (!options_.progress_path.empty()) {
    write_progress_file(snap, elapsed, eta, done);
  }
}

void Heartbeat::write_progress_file(const ProgressSnapshot& snap,
                                    double elapsed_sec, double eta_sec,
                                    bool done) const {
  const std::string tmp = options_.progress_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;  // progress is best-effort, never fails the run
  std::fprintf(f, "{\n  \"phase\": \"%s\",\n",
               wire::escape(options_.phase).c_str());
  std::fprintf(f, "  \"jobs_done\": %" PRIu64 ",\n", snap.jobs_done);
  std::fprintf(f, "  \"jobs_failed\": %" PRIu64 ",\n", snap.jobs_failed);
  std::fprintf(f, "  \"jobs_total\": %" PRIu64 ",\n", snap.jobs_total);
  if (snap.jobs_total > 0) {
    std::fprintf(f, "  \"percent\": %.2f,\n",
                 100.0 * static_cast<double>(snap.jobs_done) /
                     static_cast<double>(snap.jobs_total));
  }
  std::fprintf(f, "  \"schedules_executed\": %" PRIu64 ",\n",
               snap.schedules_executed);
  std::fprintf(f, "  \"orderings_pruned\": %" PRIu64 ",\n",
               snap.orderings_pruned);
  std::fprintf(f, "  \"violations\": %" PRIu64 ",\n", snap.violations);
  std::fprintf(f, "  \"elapsed_sec\": %.2f,\n", elapsed_sec);
  if (eta_sec >= 0.0) std::fprintf(f, "  \"eta_sec\": %.2f,\n", eta_sec);
  std::fprintf(f, "  \"done\": %s\n}\n", done ? "true" : "false");
  std::fclose(f);
  std::rename(tmp.c_str(), options_.progress_path.c_str());
}

std::unique_ptr<Heartbeat> job_heartbeat(
    std::string phase, const std::string& progress_path,
    const std::atomic<std::uint64_t>& done,
    const std::atomic<std::uint64_t>& failed, std::uint64_t total) {
  if (progress_path.empty()) return nullptr;
  Heartbeat::Options options;
  options.phase = std::move(phase);
  options.progress_path = progress_path;
  auto poll = [&done, &failed, total] {
    ProgressSnapshot snap;
    snap.jobs_done = done.load(std::memory_order_relaxed);
    snap.jobs_failed = failed.load(std::memory_order_relaxed);
    snap.jobs_total = total;
    return snap;
  };
  return std::make_unique<Heartbeat>(std::move(options), std::move(poll));
}

}  // namespace mra::obs
