// The spool transport (DESIGN.md §15). Claiming is optimistic — write your
// claim file via atomic rename, re-read to see who won. The re-read race (two
// workers both confirming within one interleaving window) is tolerated: jobs
// are idempotent by index and payloads deterministic, so the duplicate lease
// just burns CPU.
//
// This file is on the mra_lint wall-clock allowlist: claim staleness is
// judged by file mtime against the filesystem clock, and idle paths sleep a
// real poll interval.
#include "fabric/transport.hpp"

#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "core/wire.hpp"

namespace mra::fabric {
namespace {

namespace fs = std::filesystem;

using FpSeconds = std::chrono::duration<double>;

void check_timing_knob(double value, const char* field, const char* flag) {
  // Also false for NaN, which fails every comparison.
  if (value > 0 && value <= TransportTiming::kMaxSec) return;
  std::ostringstream msg;
  msg << "fabric: " << field << " (" << flag
      << ") must be a number of seconds in (0, " << TransportTiming::kMaxSec
      << "], got " << value;
  throw std::invalid_argument(msg.str());
}

struct ClaimInfo {
  std::string worker;
  std::uint64_t fence = 0;
};

std::string claim_text(const ClaimInfo& claim) {
  std::string out = "{\"worker\":";
  wire::append_string(out, claim.worker);
  out += ",\"fence\":" + std::to_string(claim.fence);
  out += "}\n";
  return out;
}

std::optional<ClaimInfo> parse_claim(std::string_view text) {
  try {
    wire::Cursor c(text, "fabric wire");
    ClaimInfo claim;
    c.expect("{\"worker\":");
    claim.worker = c.read_string();
    c.expect(",\"fence\":");
    claim.fence = c.read_u64();
    c.expect("}");
    return claim;
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// Seconds since `path` was last written; a huge value if unreadable (a
/// vanished claim is treated as infinitely stale and retried from scratch).
double claim_age_sec(const std::string& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 1e18;
  const auto age = fs::file_time_type::clock::now() - mtime;
  return std::chrono::duration_cast<FpSeconds>(age).count();
}

}  // namespace

void TransportTiming::validate() const {
  check_timing_knob(lease_timeout_sec, "lease_timeout_sec", "--lease-timeout");
  check_timing_knob(poll_interval_sec, "poll_interval_sec", "--poll-interval");
}

void sleep_poll(const TransportTiming& timing) {
  std::this_thread::sleep_for(FpSeconds(timing.poll_interval_sec));
}

SpoolClaimer::SpoolClaimer(SpoolPaths paths, std::string worker_name,
                           const Manifest& manifest,
                           const TransportTiming& timing)
    : paths_(std::move(paths)),
      name_(std::move(worker_name)),
      timing_(timing),
      leases_(partition_leases(manifest.jobs, manifest.chunk)) {
  if (!leases_.empty()) {
    scan_start_ = std::hash<std::string>{}(name_) % leases_.size();
  }
}

std::optional<Lease> SpoolClaimer::acquire() {
  // Scan from a per-worker offset, not lease 0: workers that scan in
  // lockstep all race on the same claim and serialize. The offset spreads
  // them over the grid; every lease is still visited each round.
  const std::size_t n = leases_.size();
  bool all_done = true;
  for (std::size_t step = 0; step < n; ++step) {
    const Lease& lease = leases_[(scan_start_ + step) % n];
    std::error_code ec;
    if (fs::exists(paths_.result(lease.id), ec)) continue;
    all_done = false;
    std::optional<Lease> claimed = try_claim(lease);
    if (claimed) {
      scan_start_ = (lease.id + 1) % n;
      return claimed;
    }
  }
  if (!all_done) sleep_poll(timing_);
  return std::nullopt;
}

bool SpoolClaimer::keepalive(const Lease& lease) {
  const std::optional<std::string> text = read_file(paths_.claim(lease.id));
  if (!text) return false;
  const std::optional<ClaimInfo> claim = parse_claim(*text);
  if (!claim || claim->worker != name_ || claim->fence != lease.fence) {
    return false;
  }
  // Rewrite to refresh the mtime that stale-detection reads.
  write_file_atomic(paths_.claim(lease.id), *text, name_);
  return true;
}

void SpoolClaimer::submit(const LeaseResult& result) const {
  write_result_file(paths_, result, name_);
}

bool SpoolClaimer::finished() const {
  for (const Lease& lease : leases_) {
    std::error_code ec;
    if (!fs::exists(paths_.result(lease.id), ec)) return false;
  }
  return true;
}

std::optional<Lease> SpoolClaimer::try_claim(const Lease& lease) {
  ClaimInfo mine{name_, 0};
  const std::optional<std::string> existing =
      read_file(paths_.claim(lease.id));
  if (existing) {
    const std::optional<ClaimInfo> claim = parse_claim(*existing);
    const bool stale =
        !claim ||
        claim_age_sec(paths_.claim(lease.id)) > timing_.lease_timeout_sec;
    if (!stale) return std::nullopt;  // live claim held by someone
    mine.fence = claim ? claim->fence + 1 : 1;
  }
  write_file_atomic(paths_.claim(lease.id), claim_text(mine), name_);
  // Re-read: under a rename race the last writer owns the lease.
  const std::optional<std::string> now = read_file(paths_.claim(lease.id));
  if (!now) return std::nullopt;
  const std::optional<ClaimInfo> winner = parse_claim(*now);
  if (!winner || winner->worker != name_ || winner->fence != mine.fence) {
    return std::nullopt;
  }
  Lease held = lease;
  held.fence = mine.fence;
  return held;
}

}  // namespace mra::fabric
