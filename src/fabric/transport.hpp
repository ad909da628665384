// fabric transport — how workers share out leases through the spool
// directory alone (fabric/spool.hpp, DESIGN.md §15). The spool may be shared
// across hosts over NFS; hosts without a shared filesystem cannot join a run.
//
// Claiming is optimistic: a worker writes claims/lease_<id>.json by atomic
// rename, then re-reads it to see who won. A claim whose mtime is older than
// the lease timeout, with no result file behind it, is stale and may be
// stolen with its fence bumped. Because jobs are idempotent by index
// (grid.hpp) and payloads deterministic, duplicate execution after a steal or
// a lost re-read race is harmless: the coordinator records the first result
// file it reads for a lease, and every copy carries identical bytes.
//
// This file pair is the fabric's only wall-clock boundary (claim staleness,
// poll sleeps); everything above it — coordinator, worker loop, merge — stays
// wall-clock-free, which scripts/mra_lint.py enforces via the
// `src/fabric/transport*` allowlist.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "fabric/grid.hpp"
#include "fabric/spool.hpp"

namespace mra::fabric {

/// Timing knobs. poll_interval_sec is how long an idle poll sleeps;
/// lease_timeout_sec is how long a claim may go without a keepalive before
/// another worker may steal it.
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

/// Sleeps one poll interval: the idle wait of the worker and coordinator
/// loops.
void sleep_poll(const TransportTiming& timing);

/// One worker's claims on the leases of a published manifest. Every method
/// may block up to roughly the poll interval; none blocks indefinitely.
class SpoolClaimer {
 public:
  SpoolClaimer(SpoolPaths paths, std::string worker_name,
               const Manifest& manifest, const TransportTiming& timing);

  /// Claims an unfinished lease that is free or stale (fence bumped).
  /// Scans from a per-worker offset so workers don't race on the same
  /// claim. nullopt, after one poll sleep, while every unfinished lease is
  /// held by a live claim.
  std::optional<Lease> acquire();
  /// True while this worker still holds `lease`, refreshing its claim's
  /// mtime. False means the lease was stolen: abandon it.
  bool keepalive(const Lease& lease);
  /// Writes the lease's result file (atomic: a crash mid-submit leaves
  /// nothing). Valid after a steal too: every copy has the same payloads.
  void submit(const LeaseResult& result) const;
  /// True when every lease has a result file: the worker may exit.
  [[nodiscard]] bool finished() const;

 private:
  std::optional<Lease> try_claim(const Lease& lease);

  SpoolPaths paths_;
  std::string name_;
  TransportTiming timing_;
  std::vector<Lease> leases_;
  std::size_t scan_start_ = 0;
};

}  // namespace mra::fabric
