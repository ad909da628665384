#include "common/bench_util.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "core/cli.hpp"
#include "obs/heartbeat.hpp"
#include "scenario/runner.hpp"

namespace mra::bench {

using cli::flag_value;

BenchOptions parse_options(int argc, char** argv, bool supports_json) {
  BenchOptions opts;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (flag_value(argc, argv, i, "--seed", v)) {
      opts.seed = cli::parse_count("--seed", v);
    } else if (flag_value(argc, argv, i, "--threads", v)) {
      opts.threads = cli::parse_count<unsigned>("--threads", v);
    } else if (flag_value(argc, argv, i, "--reps", v)) {
      opts.reps = cli::parse_count<std::size_t>("--reps", v, 1);
    } else if (arg == "--ci") {
      opts.ci = true;
    } else if (flag_value(argc, argv, i, "--csv", v)) {
      opts.csv_path = v;
    } else if (flag_value(argc, argv, i, "--progress", v)) {
      opts.progress_path = v;
    } else if (flag_value(argc, argv, i, "--json", v)) {
      if (!supports_json) {
        // A requested artifact must fail fast, not be silently dropped.
        std::cerr << "--json is not supported by this bench (fig5_use_rate, "
                     "fig6_waiting_phi4, scalability_n and mra_scenarios emit "
                     "JSON)\n";
        std::exit(2);
      }
      opts.json_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --quick --seed=S --threads=T --reps=N --ci "
                   "--csv=PATH --progress=PATH"
                << (supports_json ? " --json=PATH" : "") << "\n";
      std::exit(0);
    } else {
      // A mistyped flag must not silently drop an output artifact either.
      std::cerr << "unknown option: " << arg << "\n";
      std::exit(2);
    }
  }
  if (opts.ci && opts.reps < 2) {
    // A requested error bar must fail fast, not degrade to a point estimate.
    std::cerr << "--ci needs --reps >= 2 (confidence intervals require "
                 "independent replications)\n";
    std::exit(2);
  }
  return opts;
}

scenario::ScenarioSpec paper_config(algo::Algorithm algorithm, int phi,
                                    double rho, const BenchOptions& options) {
  scenario::ScenarioSpec spec;
  spec.system.algorithm = algorithm;
  spec.system.num_sites = 32;
  spec.system.num_resources = 80;
  spec.system.seed = options.seed;
  spec.system.network_latency = sim::from_ms(0.6);
  spec.workload = workload::medium_load(phi, 80);
  spec.workload.rho = rho;
  spec.warmup = options.warmup();
  spec.measure = options.measure();
  return spec;
}

std::vector<experiment::ExperimentResult> run_sweep_with_progress(
    const std::vector<scenario::ScenarioSpec>& specs,
    const BenchOptions& options, const std::string& phase) {
  std::vector<experiment::SweepJob> jobs;
  jobs.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    jobs.emplace_back([&spec]() {
      return scenario::run_scenario(spec, spec.system.algorithm);
    });
  }
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  const auto heartbeat = obs::job_heartbeat(
      phase, options.progress_path, jobs_done, jobs_failed, jobs.size());
  return experiment::run_sweep(jobs, options.threads, &jobs_done,
                               &jobs_failed);
}

std::vector<experiment::ReplicatedResult> run_replicated_sweep_with_progress(
    const std::vector<scenario::ScenarioSpec>& specs,
    const BenchOptions& options, const std::string& phase) {
  std::vector<experiment::ReplicatedJob> jobs;
  jobs.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    experiment::ReplicatedJob job;
    job.base_seed = spec.system.seed;
    job.replications = options.reps;
    job.make = [&spec](std::uint64_t rep_seed) {
      scenario::ScenarioSpec s = spec;
      s.system.seed = rep_seed;
      return scenario::run_scenario(s, s.system.algorithm);
    };
    jobs.push_back(std::move(job));
  }
  std::atomic<std::uint64_t> reps_done{0};
  std::atomic<std::uint64_t> reps_failed{0};
  const auto heartbeat =
      obs::job_heartbeat(phase, options.progress_path, reps_done, reps_failed,
                         specs.size() * options.reps);
  return experiment::run_replicated_jobs(jobs, options.threads, &reps_done,
                                         &reps_failed);
}

void emit(const experiment::Table& table, const BenchOptions& options,
          const std::string& default_csv_name) {
  table.print(std::cout);
  const std::string path =
      options.csv_path.empty() ? default_csv_name : options.csv_path;
  if (!path.empty()) {
    table.write_csv(path);
    std::cout << "(csv: " << path << ")\n";
  }
}

void emit_json(const std::string& bench_name,
               const std::vector<experiment::LabeledResult>& results,
               const BenchOptions& options) {
  if (options.json_path.empty()) return;
  experiment::write_results_json_file(options.json_path, bench_name, results);
  std::cout << "(json: " << options.json_path << ")\n";
}

void emit_json(
    const std::string& bench_name,
    const std::vector<experiment::LabeledReplicatedResult>& results,
    const BenchOptions& options) {
  if (options.json_path.empty()) return;
  experiment::write_replicated_json_file(options.json_path, bench_name,
                                         results);
  std::cout << "(json: " << options.json_path << ")\n";
}

}  // namespace mra::bench
