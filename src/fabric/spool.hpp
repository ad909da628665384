// The spool directory: the fabric's durable state (DESIGN.md §15).
//
// Layout under one root:
//   manifest.json             the Manifest (grid + sharding), written once
//   claims/lease_<id>.json    claim files ({"worker":...,"fence":N})
//   results/lease_<id>.jsonl  completed lease: header line + one payload/job
//   checkpoint.log            append-only `done <first> <count>` lines
//
// Every file that matters is written atomically (tmp + rename into place), so
// readers never observe a torn file; a crash mid-write leaves at most a stale
// *.tmp. The checkpoint log is the one append-in-place file — its reader
// accepts only complete lines, so a crash mid-append costs one re-run lease,
// never a corrupt resume.
//
// This layer is deliberately wall-clock-free: staleness decisions live in the
// transport (the lint allowlist covers only src/fabric/transport*).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mra::fabric {

/// A contiguous job-index range plus the fence token it was claimed under.
struct Lease {
  std::uint64_t id = 0;     ///< lease index (= first / chunk)
  std::uint64_t first = 0;  ///< first job index
  std::uint64_t count = 0;  ///< number of jobs
  std::uint64_t fence = 0;  ///< bumped on every steal
};

/// A completed lease: payloads[i] is job first + i.
struct LeaseResult {
  Lease lease;
  std::vector<std::string> payloads;
};

/// Splits `jobs` into ceil(jobs / chunk) leases in index order.
[[nodiscard]] std::vector<Lease> partition_leases(std::uint64_t jobs,
                                                  std::uint64_t chunk);

/// Path scheme for a spool root. Pure string math — no filesystem access.
struct SpoolPaths {
  std::string root;

  [[nodiscard]] std::string manifest() const { return root + "/manifest.json"; }
  [[nodiscard]] std::string claims_dir() const { return root + "/claims"; }
  [[nodiscard]] std::string results_dir() const { return root + "/results"; }
  [[nodiscard]] std::string checkpoint() const {
    return root + "/checkpoint.log";
  }
  [[nodiscard]] std::string claim(std::uint64_t lease_id) const {
    return claims_dir() + "/lease_" + std::to_string(lease_id) + ".json";
  }
  [[nodiscard]] std::string result(std::uint64_t lease_id) const {
    return results_dir() + "/lease_" + std::to_string(lease_id) + ".jsonl";
  }
};

/// Creates root/claims/results directories (parents included). Throws
/// std::runtime_error on failure.
void ensure_spool_dirs(const SpoolPaths& paths);

/// Atomic whole-file write: <path>.tmp.<suffix> then rename over <path>.
/// rename(2) replaces any existing file, so concurrent writers race cleanly —
/// one complete copy wins. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, std::string_view content,
                       std::string_view tmp_suffix);

/// Whole-file read; nullopt if the file did not exist when opened, even if
/// it appears right after (other I/O errors throw).
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Appends one `done <first> <count>` line (with fsync) to the checkpoint.
void append_checkpoint(const SpoolPaths& paths, const Lease& lease);

/// Replays the checkpoint log: lease ids (first / chunk) with a complete
/// `done` line. A partial trailing line (crash mid-append) is ignored;
/// malformed complete lines throw std::runtime_error. Missing file => empty.
[[nodiscard]] std::vector<std::uint64_t> load_checkpoint(
    const SpoolPaths& paths, std::uint64_t chunk);

/// Writes results/lease_<id>.jsonl atomically: a header line
/// `{"lease":id,"first":f,"count":n,"fence":k}` then one payload line per
/// job in index order.
void write_result_file(const SpoolPaths& paths, const LeaseResult& result,
                       std::string_view tmp_suffix);

/// Reads a lease result file back; nullopt if absent or torn (wrong payload
/// count — possible only for files not written by write_result_file).
[[nodiscard]] std::optional<LeaseResult> read_result_file(
    const SpoolPaths& paths, std::uint64_t lease_id);

}  // namespace mra::fabric
