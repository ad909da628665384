// Machine-readable result export: a small hand-rolled JSON writer for
// ExperimentResult (no third-party JSON dependency). Benches use it for the
// BENCH_*.json trajectory files; the scenario CLI uses it for --json.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "experiment/replicate.hpp"

namespace mra::experiment {

/// A result plus the caller's context label (load level, scenario name...).
struct LabeledResult {
  std::string label;
  ExperimentResult result;
};

/// A replicated result plus the caller's context label.
struct LabeledReplicatedResult {
  std::string label;
  ReplicatedResult result;
};

/// Writes `{"tool": ..., "results": [...]}` with one object per result
/// (label, algorithm, phi, rho, use_rate, waiting stats, message and loan
/// counters). Non-finite doubles are emitted as null.
void write_results_json(std::ostream& os, const std::string& tool,
                        const std::vector<LabeledResult>& results);

/// Same, to a file. Throws std::runtime_error when the file cannot be
/// opened.
void write_results_json_file(const std::string& path, const std::string& tool,
                             const std::vector<LabeledResult>& results);

/// Replicated-run export: same shape and row keys (label, algorithm, phi,
/// rho) as write_results_json so rows of the two match up, plus
/// `replications`, the `*_ci95` half-widths (null below two replications)
/// and the pooled waiting-time tail quantiles.
void write_replicated_json(std::ostream& os, const std::string& tool,
                           const std::vector<LabeledReplicatedResult>& results);

void write_replicated_json_file(
    const std::string& path, const std::string& tool,
    const std::vector<LabeledReplicatedResult>& results);

}  // namespace mra::experiment
