// Shared helpers for the figure/table bench binaries.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "experiment/experiment.hpp"
#include "experiment/json.hpp"
#include "experiment/replicate.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "scenario/spec.hpp"

namespace mra::bench {

/// Scale knobs common to every bench binary, settable from the command line:
///   --quick        shorter measurement window (CI-friendly)
///   --seed=S       base RNG seed
///   --threads=T    sweep worker threads (0 = hardware concurrency)
///   --reps=N       independent replications per configuration (default 1);
///                  N >= 2 reports mean ± 95% CI and p50/p95/p99 per series
///   --ci           assert that confidence intervals are being produced
///                  (errors out unless --reps >= 2)
///   --csv=PATH     also write the table as CSV
///   --json=PATH    also write machine-readable results (BENCH_*.json)
///   --progress=P   heartbeat: live sweep progress on stderr plus a JSON
///                  progress file at P, updated every ~2s of wall time
struct BenchOptions {
  bool quick = false;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  std::size_t reps = 1;
  bool ci = false;
  std::string csv_path;
  std::string json_path;
  std::string progress_path;

  sim::SimDuration warmup() const {
    return quick ? sim::from_ms(500) : sim::from_ms(2000);
  }
  sim::SimDuration measure() const {
    return quick ? sim::from_ms(4000) : sim::from_ms(20000);
  }
};

/// `supports_json` declares whether the calling bench emits JSON: a --json
/// request to a bench that cannot honor it fails fast here (exit 2) instead
/// of silently dropping the artifact.
BenchOptions parse_options(int argc, char** argv, bool supports_json = false);

/// The paper's §5.1 workload as a scenario: N=32, M=80, γ=0.6 ms, uniform
/// resource choice, closed-loop Exp(β) think time, size buckets of six.
scenario::ScenarioSpec paper_config(algo::Algorithm algorithm, int phi,
                                    double rho, const BenchOptions& options);

/// One scenario::run_scenario job per spec (each with its own
/// system.algorithm) through experiment::run_sweep, with an obs::Heartbeat
/// attached when --progress was given. `phase` labels the stderr lines and
/// the progress file. The heartbeat only reads a job counter — results are
/// byte-identical with and without it.
[[nodiscard]] std::vector<experiment::ExperimentResult>
run_sweep_with_progress(const std::vector<scenario::ScenarioSpec>& specs,
                        const BenchOptions& options, const std::string& phase);

/// Replicated flavor: --reps replications of each spec through
/// experiment::run_replicated_jobs; the heartbeat counts individual
/// replications (each is one simulation), not merged specs.
[[nodiscard]] std::vector<experiment::ReplicatedResult>
run_replicated_sweep_with_progress(
    const std::vector<scenario::ScenarioSpec>& specs,
    const BenchOptions& options, const std::string& phase);

/// Prints the table and optionally writes the CSV next to the binary.
void emit(const experiment::Table& table, const BenchOptions& options,
          const std::string& default_csv_name);

/// Writes the labeled results as JSON when --json=PATH was given (no-op
/// otherwise). `bench_name` identifies the producing binary in the file.
void emit_json(const std::string& bench_name,
               const std::vector<experiment::LabeledResult>& results,
               const BenchOptions& options);

/// Replicated-run flavor (rows carry replications, CI half-widths and tail
/// quantiles).
void emit_json(
    const std::string& bench_name,
    const std::vector<experiment::LabeledReplicatedResult>& results,
    const BenchOptions& options);

}  // namespace mra::bench
