// fabric::Transport — the lease-passing layer between coordinator and
// workers, with two interchangeable backends (DESIGN.md §15):
//
//   file-queue  a spool directory (host-shareable via NFS): the manifest,
//               per-lease claim files written by atomic tmp+rename, and
//               per-lease result files. Coordinator-less claiming: workers
//               race on rename and re-read to confirm ownership; a claim
//               whose mtime exceeds the lease timeout without a result is
//               stale and may be stolen (fence bumped).
//   tcp         a minimal length-prefixed (4-byte big-endian) JSON frame
//               protocol. The coordinator owns a lease ledger (pending /
//               issued with fence + deadline / done) and reissues leases
//               whose deadline passes — the crash story for a killed
//               worker.
//
// Leases are ranges of job indices plus a fence token. Because jobs are
// idempotent by index (grid.hpp) and payloads deterministic, duplicate
// execution after a steal or reissue is harmless: the first completed copy
// of a lease wins and every copy carries identical bytes.
//
// This transport layer is the fabric's only wall-clock boundary (lease
// staleness, poll intervals, socket timeouts); everything above it —
// coordinator, worker loop, merge — stays wall-clock-free, which
// scripts/mra_lint.py enforces via the `src/fabric/transport*` allowlist.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mra::fabric {

/// A contiguous job-index range plus the fence token it was issued under.
struct Lease {
  std::uint64_t id = 0;     ///< lease index (= first / chunk)
  std::uint64_t first = 0;  ///< first job index
  std::uint64_t count = 0;  ///< number of jobs
  std::uint64_t fence = 0;  ///< bumped on every steal / reissue
};

/// A completed lease: payloads[i] is job first + i.
struct LeaseResult {
  Lease lease;
  std::vector<std::string> payloads;
};

/// Splits `jobs` into ceil(jobs / chunk) leases in index order.
[[nodiscard]] std::vector<Lease> partition_leases(std::uint64_t jobs,
                                                  std::uint64_t chunk);

/// Backend timing knobs. poll_interval_sec bounds how long the blocking
/// calls sleep internally; lease_timeout_sec is how long a lease may go
/// without a keepalive before it is considered abandoned.
struct TransportTiming {
  double lease_timeout_sec = 30.0;
  double poll_interval_sec = 0.2;

  /// Longest accepted value of either knob, one day: far beyond any real
  /// lease or poll, and small enough that converting it to a sleep in
  /// nanoseconds or a poll count in int cannot overflow.
  static constexpr double kMaxSec = 24.0 * 60.0 * 60.0;

  /// Throws std::invalid_argument naming the field unless both knobs are
  /// finite, > 0 and at most kMaxSec. NaN would otherwise reach undefined
  /// float-to-int casts and a lease comparison that is never true.
  void validate() const;
};

/// Worker-side endpoint. All methods may block up to roughly the poll
/// interval; none blocks indefinitely.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// The published manifest text, or nullopt if not available yet.
  virtual std::optional<std::string> manifest() = 0;
  /// Tries to obtain a lease (TCP: lowest available index; file queue: a
  /// per-worker scan offset so workers don't race on the same claim).
  virtual std::optional<Lease> acquire() = 0;
  /// True while this worker still holds `lease`; refreshes the claim /
  /// deadline. False means the lease was stolen or reissued — abandon it.
  virtual bool keepalive(const Lease& lease) = 0;
  /// Ships a completed lease (atomic: a crash mid-submit leaves nothing).
  virtual void submit(const LeaseResult& result) = 0;
  /// True when every lease is complete (or the coordinator is gone) — the
  /// worker may exit.
  virtual bool finished() = 0;
};

/// Coordinator-side endpoint.
class CoordinatorEndpoint {
 public:
  virtual ~CoordinatorEndpoint() = default;
  CoordinatorEndpoint() = default;
  CoordinatorEndpoint(const CoordinatorEndpoint&) = delete;
  CoordinatorEndpoint& operator=(const CoordinatorEndpoint&) = delete;

  /// Announces the grid. `done[i]` marks leases already completed by a
  /// previous run (checkpoint resume) — they are never issued again.
  virtual void publish(const std::string& manifest,
                       const std::vector<Lease>& leases,
                       const std::vector<bool>& done) = 0;
  /// Waits up to the poll interval; returns leases newly completed since
  /// the last call (possibly none).
  virtual std::vector<LeaseResult> poll() = 0;
  /// The driver confirms it persisted + checkpointed this lease.
  virtual void mark_done(std::uint64_t lease_id) = 0;
  /// TCP: the bound listen port (for --listen 0). File backend: -1.
  [[nodiscard]] virtual int port() const { return -1; }
};

/// File-queue backend over `spool_root` (fabric/spool.hpp layout).
[[nodiscard]] std::unique_ptr<Transport> make_file_worker(
    const std::string& spool_root, const std::string& worker_name,
    const TransportTiming& timing);
[[nodiscard]] std::unique_ptr<CoordinatorEndpoint> make_file_coordinator(
    const std::string& spool_root, const TransportTiming& timing);

/// TCP backend. The coordinator factory binds and listens immediately
/// (port 0 = ephemeral, see CoordinatorEndpoint::port()); workers retry the
/// connect until the coordinator is up. Throws std::runtime_error on socket
/// setup failure.
[[nodiscard]] std::unique_ptr<Transport> make_tcp_worker(
    const std::string& host, int port, const std::string& worker_name,
    const TransportTiming& timing);
[[nodiscard]] std::unique_ptr<CoordinatorEndpoint> make_tcp_coordinator(
    int port, const TransportTiming& timing);

}  // namespace mra::fabric
