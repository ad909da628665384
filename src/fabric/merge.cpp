#include "fabric/merge.hpp"

#include <atomic>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>

#include "algo/factory.hpp"
#include "experiment/json.hpp"
#include "experiment/replicate.hpp"
#include "experiment/sweep.hpp"
#include "fabric/result.hpp"
#include "obs/heartbeat.hpp"
#include "scenario/runner.hpp"

namespace mra::fabric {

namespace {

/// kExplore rows are already self-describing JSON objects; wrap them in the
/// same envelope shape write_results_json uses.
void write_explore_json(std::ostream& os,
                        const std::vector<std::string>& rows) {
  os << "{\"tool\":\"mra_fabric\",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n  " << rows[i];
  }
  os << "\n]}\n";
}

std::optional<MergeError> find_error(const std::vector<std::string>& payloads) {
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::optional<std::string> message = parse_error(payloads[i]);
    if (message) return MergeError{i, *message};
  }
  return std::nullopt;
}

}  // namespace

std::optional<MergeError> write_merged_output(
    std::ostream& os, const GridSpec& grid,
    const std::vector<std::string>& payloads) {
  if (payloads.size() != grid.job_count()) {
    throw std::invalid_argument(
        "fabric merge: " + std::to_string(payloads.size()) +
        " payloads for " + std::to_string(grid.job_count()) + " jobs");
  }
  std::optional<MergeError> error = find_error(payloads);
  if (error) return error;

  switch (grid.kind) {
    case GridKind::kSweep: {
      std::vector<experiment::LabeledResult> labeled;
      labeled.reserve(payloads.size());
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        labeled.push_back(experiment::LabeledResult{
            grid.job_label(i), parse_result(payloads[i])});
      }
      experiment::write_results_json(os, "mra_fabric", labeled);
      return std::nullopt;
    }
    case GridKind::kReplicated: {
      const std::size_t reps = grid.replications;
      std::vector<experiment::ExperimentResult> flat;
      flat.reserve(payloads.size());
      for (const std::string& payload : payloads) {
        flat.push_back(parse_result(payload));
      }
      std::vector<experiment::LabeledReplicatedResult> labeled;
      labeled.reserve(flat.size() / reps);
      for (std::size_t pair = 0; pair * reps < flat.size(); ++pair) {
        // Replications are consecutive per (scenario, algorithm) pair, in
        // replication order — the exact slices run_replicated_jobs merges.
        labeled.push_back(experiment::LabeledReplicatedResult{
            grid.job_label(pair * reps),
            experiment::merge_replications(
                std::span(flat).subspan(pair * reps, reps))});
      }
      experiment::write_replicated_json(os, "mra_fabric", labeled);
      return std::nullopt;
    }
    case GridKind::kExplore: {
      write_explore_json(os, payloads);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

int run_local(const GridSpec& grid, unsigned threads, std::ostream& os,
              const std::string& progress_path) {
  grid.validate();
  const std::uint64_t total = grid.job_count();
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};

  if (grid.kind == GridKind::kExplore) {
    const std::unique_ptr<obs::Heartbeat> heartbeat =
        obs::job_heartbeat("fabric-local", progress_path, jobs_done,
                           jobs_failed, total);
    std::vector<std::string> rows;
    rows.reserve(grid.job_count());
    for (std::size_t i = 0; i < grid.job_count(); ++i) {
      try {
        rows.push_back(grid.run_job(i));
      } catch (const std::exception& e) {
        jobs_failed.fetch_add(1, std::memory_order_relaxed);
        std::cerr << "fabric: explore job #" << i << " failed: " << e.what()
                  << "\n";
        return 1;
      }
      jobs_done.fetch_add(1, std::memory_order_relaxed);
    }
    write_explore_json(os, rows);
    return 0;
  }

  const std::vector<scenario::ScenarioSpec> specs = grid.resolve_scenarios();
  std::vector<algo::Algorithm> algos;
  algos.reserve(grid.algorithms.size());
  for (const std::string& name : grid.algorithms) {
    algos.push_back(algo::algorithm_from_name(name));
  }

  try {
    if (grid.kind == GridKind::kSweep) {
      std::vector<experiment::SweepJob> jobs;
      std::vector<std::string> labels;
      for (const scenario::ScenarioSpec& spec : specs) {
        for (const algo::Algorithm alg : algos) {
          jobs.emplace_back(
              [&spec, alg] { return scenario::run_scenario(spec, alg); });
          labels.push_back(spec.name);
        }
      }
      std::vector<experiment::ExperimentResult> results;
      {
        const std::unique_ptr<obs::Heartbeat> heartbeat =
            obs::job_heartbeat("fabric-local", progress_path, jobs_done,
                               jobs_failed, total);
        results = experiment::run_sweep(jobs, threads, &jobs_done,
                                        &jobs_failed);
      }
      std::vector<experiment::LabeledResult> labeled;
      labeled.reserve(results.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        labeled.push_back(experiment::LabeledResult{labels[i], results[i]});
      }
      experiment::write_results_json(os, "mra_fabric", labeled);
      return 0;
    }

    // kReplicated: the genuine in-process replication path — the fabric's
    // sharded merge must reproduce its bytes exactly.
    std::vector<experiment::ReplicatedJob> jobs;
    std::vector<std::string> labels;
    for (const scenario::ScenarioSpec& spec : specs) {
      for (const algo::Algorithm alg : algos) {
        experiment::ReplicatedJob job;
        job.base_seed = spec.system.seed;
        job.replications = grid.replications;
        job.make = [spec, alg](std::uint64_t rep_seed) {
          scenario::ScenarioSpec s = spec;
          s.system.seed = rep_seed;
          return scenario::run_scenario(s, alg);
        };
        jobs.push_back(std::move(job));
        labels.push_back(spec.name);
      }
    }
    std::vector<experiment::ReplicatedResult> results;
    {
      const std::unique_ptr<obs::Heartbeat> heartbeat =
          obs::job_heartbeat("fabric-local", progress_path, jobs_done,
                             jobs_failed, total);
      results = experiment::run_replicated_jobs(jobs, threads, &jobs_done,
                                                &jobs_failed);
    }
    std::vector<experiment::LabeledReplicatedResult> labeled;
    labeled.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      labeled.push_back(
          experiment::LabeledReplicatedResult{labels[i], results[i]});
    }
    experiment::write_replicated_json(os, "mra_fabric", labeled);
    return 0;
  } catch (const experiment::SweepError& e) {
    std::cerr << "fabric: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mra::fabric
