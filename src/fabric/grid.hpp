// GridSpec: the enumerable job grid the fabric distributes (DESIGN.md §15).
//
// A grid names its work declaratively — scenario names, algorithm names, and
// the per-kind fan-out knobs — so the coordinator can publish it as a
// manifest and any worker can reconstruct job i bit-identically from (grid,
// i) alone. Job indices are the fabric's unit of idempotency: running a job
// twice (duplicate lease, killed-and-retried worker) produces the same
// payload bytes, so the merge never depends on which worker ran what.
//
// Three kinds:
//   kSweep       scenarios × algorithms, one run_scenario per job, in the
//                exact order examples/mra_scenarios.cpp sweeps (scenario
//                outer, algorithm inner).
//   kReplicated  scenarios × algorithms × replications; job index
//                pair * replications + rep, replication seeds from
//                experiment::replication_seed — the same flattening
//                run_replicated_jobs uses, so grouped merges match it.
//   kExplore     `explore_jobs` independent check::explore shards, job j
//                fuzzing seeds_per_job seeds from base seed
//                grid.seed + j * seeds_per_job (a disjoint seed range per
//                job).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace mra::wire {
class Cursor;
}

namespace mra::fabric {

enum class GridKind { kSweep, kReplicated, kExplore };

[[nodiscard]] const char* to_string(GridKind k);
/// Parses "sweep" | "replicated" | "explore"; throws std::invalid_argument.
[[nodiscard]] GridKind grid_kind_from_name(const std::string& name);

struct GridSpec {
  GridKind kind = GridKind::kSweep;
  std::vector<std::string> scenarios;   ///< registry names, already expanded
  std::vector<std::string> algorithms;  ///< factory cli names
  std::size_t replications = 4;         ///< kReplicated
  std::size_t seeds_per_job = 4;        ///< kExplore
  std::size_t explore_jobs = 8;         ///< kExplore
  bool quick = false;
  bool seed_set = false;   ///< override every scenario's base seed
  std::uint64_t seed = 1;  ///< the override (kExplore: the base seed)

  /// Largest accepted value of every count above, and of job_count(): far
  /// above any real grid, and small enough that job and lease tables fit in
  /// memory and seeds_per_job fits run_job's int.
  static constexpr std::uint64_t kMaxCount = 1'000'000;

  /// One JSON line; parse() inverts it. Throws std::invalid_argument on
  /// malformed input, including any byte after the closing brace.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static GridSpec parse(std::string_view text);
  /// Reads one serialized grid at the cursor, in place (the manifest embeds
  /// one).
  [[nodiscard]] static GridSpec read(wire::Cursor& c);

  /// Validates names against the registries, each count and job_count()
  /// (at most kMaxCount, computed without wrap); throws
  /// std::invalid_argument naming the field and its flag.
  void validate() const;

  [[nodiscard]] std::size_t job_count() const;

  /// The scenario name backing job `index` (the JSON row label; kExplore
  /// jobs are labelled "explore:<job>").
  [[nodiscard]] std::string job_label(std::size_t index) const;

  /// Runs job `index` to a payload line (fabric/result.hpp format for
  /// kSweep/kReplicated; a self-describing stats row for kExplore).
  /// Deterministic: depends only on (grid, index). Expects a validated
  /// grid. Propagates the job's exception on failure — the worker loop
  /// wraps it into error_payload.
  [[nodiscard]] std::string run_job(std::size_t index) const;

  /// The scenario specs with the grid's seed/quick adjustments applied, in
  /// `scenarios` order (the same adjustment mra_scenarios applies).
  [[nodiscard]] std::vector<scenario::ScenarioSpec> resolve_scenarios() const;
};

/// The spool manifest: the grid plus the coordinator's sharding knobs.
struct Manifest {
  GridSpec grid;
  std::uint64_t chunk = 1;  ///< jobs per lease
  std::uint64_t jobs = 0;   ///< grid.job_count(), denormalized for workers

  [[nodiscard]] std::string serialize() const;
  /// Inverts serialize(). Throws std::invalid_argument on malformed text
  /// (only whitespace may follow the closing brace), chunk 0, a grid
  /// validate() rejects, or jobs != grid.job_count().
  [[nodiscard]] static Manifest parse(std::string_view text);
};

}  // namespace mra::fabric
