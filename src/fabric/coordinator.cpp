#include "fabric/coordinator.hpp"

#include <atomic>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "fabric/merge.hpp"
#include "fabric/result.hpp"
#include "fabric/spool.hpp"
#include "fabric/transport.hpp"
#include "obs/heartbeat.hpp"

namespace mra::fabric {

namespace {

struct Board {
  std::vector<Lease> leases;
  std::vector<bool> done;
  std::vector<std::string> payloads;  ///< by job index
  std::size_t leases_done = 0;

  /// Files a completed lease's payloads; false if already done / invalid.
  bool record(const LeaseResult& result) {
    if (result.lease.id >= leases.size()) return false;
    const Lease& expected = leases[result.lease.id];
    if (done[result.lease.id]) return false;
    if (result.lease.first != expected.first ||
        result.lease.count != expected.count ||
        result.payloads.size() != expected.count) {
      return false;
    }
    for (std::uint64_t j = 0; j < expected.count; ++j) {
      payloads[expected.first + j] = result.payloads[j];
    }
    done[result.lease.id] = true;
    leases_done += 1;
    return true;
  }
};

std::uint64_t count_failed(const std::vector<std::string>& payloads) {
  std::uint64_t failed = 0;
  for (const std::string& p : payloads) {
    if (parse_error(p)) failed += 1;
  }
  return failed;
}

}  // namespace

int run_coordinator(const GridSpec& grid, const CoordinatorOptions& opts) {
  grid.validate();
  // Workers judge claim staleness; the coordinator only sleeps between polls.
  const TransportTiming timing{.poll_interval_sec = opts.poll_interval_sec};
  timing.validate();
  if (opts.spool.empty()) {
    std::cerr << "fabric: the coordinator needs --spool (checkpoint store)\n";
    return 2;
  }

  Manifest manifest;
  manifest.grid = grid;
  manifest.chunk = opts.chunk;
  manifest.jobs = grid.job_count();
  const std::string manifest_text = manifest.serialize();

  const SpoolPaths paths{opts.spool};
  ensure_spool_dirs(paths);
  const std::optional<std::string> existing = read_file(paths.manifest());
  if (existing && *existing != manifest_text) {
    std::cerr << "fabric: spool '" << opts.spool
              << "' holds a different grid; use a fresh spool\n";
    return 2;
  }
  if (!existing) {
    // The manifest is the spool's identity, and workers read it from here.
    write_file_atomic(paths.manifest(), manifest_text, "coordinator");
  }
  const std::vector<std::uint64_t> checkpointed =
      load_checkpoint(paths, opts.chunk);
  if (!checkpointed.empty() && !opts.resume) {
    std::cerr << "fabric: spool '" << opts.spool
              << "' has a checkpoint; pass --resume to continue it or use a "
                 "fresh spool\n";
    return 2;
  }

  Board board;
  board.leases = partition_leases(manifest.jobs, opts.chunk);
  board.done.assign(board.leases.size(), false);
  board.payloads.assign(manifest.jobs, std::string());

  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  for (const std::uint64_t id : checkpointed) {
    if (id >= board.leases.size() || board.done[id]) continue;
    // Trust the checkpoint only as far as the result file behind it: a
    // missing or torn file demotes the lease back to pending.
    const std::optional<LeaseResult> result = read_result_file(paths, id);
    if (result && board.record(*result)) {
      jobs_done.fetch_add(result->lease.count, std::memory_order_relaxed);
    }
  }

  {
    const std::unique_ptr<obs::Heartbeat> heartbeat =
        obs::job_heartbeat("fabric-coordinator", opts.progress_path, jobs_done,
                           jobs_failed, manifest.jobs);
    while (board.leases_done < board.leases.size()) {
      bool recorded = false;
      for (const Lease& lease : board.leases) {
        if (board.done[lease.id]) continue;
        const std::optional<LeaseResult> result =
            read_result_file(paths, lease.id);
        if (!result || !board.record(*result)) continue;
        // The result file is on disk before its `done` line: a checkpoint
        // entry always has a readable result file behind it.
        append_checkpoint(paths, lease);
        jobs_done.fetch_add(lease.count, std::memory_order_relaxed);
        jobs_failed.fetch_add(count_failed(result->payloads),
                              std::memory_order_relaxed);
        recorded = true;
      }
      if (!recorded) sleep_poll(timing);
    }
  }

  std::optional<MergeError> error;
  if (opts.out_path.empty()) {
    error = write_merged_output(std::cout, grid, board.payloads);
  } else {
    std::ofstream os(opts.out_path, std::ios::binary);
    if (!os) {
      std::cerr << "fabric: cannot write '" << opts.out_path << "'\n";
      return 1;
    }
    error = write_merged_output(os, grid, board.payloads);
  }
  if (error) {
    std::cerr << "fabric: job #" << error->job << " ("
              << grid.job_label(error->job) << ") failed: " << error->message
              << "\n";
    return 1;
  }
  if (!opts.out_path.empty()) {
    std::cerr << "fabric: merged " << manifest.jobs << " jobs -> "
              << opts.out_path << "\n";
  }
  return 0;
}

}  // namespace mra::fabric
