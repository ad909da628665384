// Payload lines: one serialized ExperimentResult per job (DESIGN.md §15).
//
// A worker ships each finished job back as a single JSON line carrying every
// field the merge layer consumes — the scalar metrics experiment/json.cpp
// prints plus the mergeable accumulators (RunningStats, QuantileSketch) that
// experiment::merge_replications pools. Doubles round-trip exactly
// (core/wire.hpp), so a coordinator that parses these lines and writes the
// standard JSON reports produces bytes identical to the in-process path.
//
// Not carried: waiting_by_size, messages_by_kind, records — no consumer on
// the merge side reads them (they feed the Fig. 7 table and the Gantt
// export, which run in-process).
//
// A job that throws ships an error payload instead; the coordinator surfaces
// the lowest failed job index and produces no merged output, mirroring
// run_sweep's SweepError contract.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "experiment/experiment.hpp"

namespace mra::fabric {

/// One JSON line (no trailing newline) for a finished job.
[[nodiscard]] std::string serialize_result(
    const experiment::ExperimentResult& r);

/// Inverse of serialize_result. Throws std::invalid_argument on malformed
/// input (including error payloads — check parse_error first).
[[nodiscard]] experiment::ExperimentResult parse_result(std::string_view line);

/// One JSON line for a failed job.
[[nodiscard]] std::string error_payload(std::string_view message);

/// The error message when `line` is an error payload, nullopt otherwise.
[[nodiscard]] std::optional<std::string> parse_error(std::string_view line);

}  // namespace mra::fabric
