// The fabric worker loop (DESIGN.md §15): lease, run, keepalive, submit.
//
// Workers are stateless: everything they need is the manifest plus a job
// index, so any number can join, die, or rejoin at any time. A job that
// throws becomes an error payload (the lease still completes — the
// coordinator reports failures after the merge gate), and a lost keepalive
// abandons the lease without submitting, leaving it to whoever stole it.
#pragma once

#include <string>

#include "fabric/grid.hpp"

namespace mra::fabric {

struct WorkerOptions {
  std::string spool;  ///< spool root (required)
  std::string name;   ///< claim-file identity (default "w<pid>")
  double lease_timeout_sec = 30.0;
  double poll_interval_sec = 0.2;
  std::string progress_path;  ///< non-empty: obs::Heartbeat progress file
};

/// Runs jobs until every lease in the spool has a result. Exit codes: 0
/// done; 1 setup failure (no --spool, no manifest within a minute). Throws
/// std::invalid_argument for timing knobs TransportTiming::validate rejects
/// and for a manifest Manifest::parse refuses.
[[nodiscard]] int run_worker(const WorkerOptions& opts);

}  // namespace mra::fabric
