// The fabric coordinator (DESIGN.md §15): owns the grid, the spool, the
// checkpoint log, and the final merge.
//
// Crash safety: a lease's `done` line is appended to the checkpoint log only
// after its result file was read from the spool, so a checkpoint entry
// always has a readable result file behind it — and resume double-checks
// anyway, demoting any checkpointed lease whose result file is missing or
// torn back to pending. Killing the coordinator at any instant therefore
// costs at most the leases in flight, never correctness.
#pragma once

#include <cstdint>
#include <string>

#include "fabric/grid.hpp"

namespace mra::fabric {

struct CoordinatorOptions {
  std::string spool;          ///< spool root (required)
  std::uint64_t chunk = 1;    ///< jobs per lease
  bool resume = false;        ///< continue from the spool's checkpoint
  double poll_interval_sec = 0.2;
  std::string out_path;       ///< merged report (empty = stdout)
  std::string progress_path;  ///< non-empty: obs::Heartbeat progress file
};

/// Runs the coordinator to completion. Exit codes: 0 merged output written;
/// 1 at least one job failed (lowest index reported on stderr); 2 usage /
/// spool-state error (manifest mismatch, checkpoint without --resume).
/// A grid or poll interval that GridSpec::validate or
/// TransportTiming::validate reject throws before the spool is touched.
[[nodiscard]] int run_coordinator(const GridSpec& grid,
                                  const CoordinatorOptions& opts);

}  // namespace mra::fabric
