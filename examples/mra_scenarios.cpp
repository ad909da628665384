// mra_scenarios — the scenario-registry CLI runner: run any registered
// scenario against any algorithm, record its request trace, or replay a
// recorded trace so every algorithm is scored on bit-identical input.
//
// Examples:
//   mra_scenarios --list
//   mra_scenarios --scenario paper-phi4 --algo lass
//   mra_scenarios --scenario all --algo all --quick --json results.json
//   mra_scenarios --record trace.mra --scenario zipf-hot --algo lass-loan
//   mra_scenarios --replay trace.mra --algo all
//   mra_scenarios --scenario paper-phi4 --algo lass --trace-out run.json
//       --spans-csv slow.csv --slowest 10 --gauges gauges.json
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "check/monitor.hpp"
#include "core/cli.hpp"
#include "experiment/json.hpp"
#include "experiment/replicate.hpp"
#include "experiment/sweep.hpp"
#include "experiment/table.hpp"
#include "obs/heartbeat.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace mra;
using cli::flag_value;
using experiment::Table;

namespace {

struct Options {
  bool list = false;
  std::vector<std::string> scenarios;  // empty = all
  std::vector<std::string> algos;      // empty = lass-loan
  std::string record_path;
  std::string replay_path;
  bool quick = false;
  bool seed_set = false;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  std::size_t reps = 1;
  bool ci = false;
  std::string csv_path;
  std::string json_path;
  // Flight-recorder outputs (src/obs): any of these switches the run into
  // the sequential single-run recorder mode.
  std::string trace_out;
  std::string spans_csv;
  std::size_t slowest = 0;  ///< 0 = all spans in the CSV
  std::string gauges_path;
  double gauge_interval_ms = 10.0;
  std::string progress_path;  ///< sweep/replicated: heartbeat progress file
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "mra_scenarios — named-scenario runner and trace record/replay\n"
      "\n"
      "  --list                 print the scenario registry and exit\n"
      "  --scenario NAME|all    scenario(s) to run (repeatable; default all)\n"
      "  --algo NAME|all        algorithm(s): incremental | bl | lass |\n"
      "                         lass-loan | central | maddi (default lass-loan)\n"
      "  --record PATH          record the request trace of one run to PATH\n"
      "  --replay PATH          replay a recorded trace (safety-checked)\n"
      "  --quick                short windows (CI-friendly)\n"
      "  --seed S               override the scenario's seed\n"
      "  --threads T            sweep worker threads (0 = hardware)\n"
      "  --reps N               independent replications per run (default 1);\n"
      "                         N >= 2 reports mean ± 95% CI and p50/p95/p99\n"
      "  --ci                   assert error bars are produced (needs\n"
      "                         --reps >= 2)\n"
      "  --csv PATH             write the result table as CSV\n"
      "  --json PATH            write machine-readable results as JSON\n"
      "\n"
      "Flight recorder (single scenario + algo, sequential run):\n"
      "  --trace-out PATH       write a Perfetto-loadable Chrome trace JSON\n"
      "                         (request spans, message flows, gauges)\n"
      "  --spans-csv PATH       write per-request lifecycle rows as CSV\n"
      "  --slowest K            keep only the K longest-waiting spans in the\n"
      "                         CSV (0 = all; trace JSON is always complete)\n"
      "  --gauges PATH          write the engine gauge time-series as JSON\n"
      "  --gauge-interval-ms X  gauge sampling grid in simulated ms\n"
      "                         (default 10)\n"
      "\n"
      "Long-run monitoring (sweep / replicated modes):\n"
      "  --progress PATH        heartbeat: progress lines on stderr plus a\n"
      "                         machine-readable JSON file at PATH, updated\n"
      "                         every ~2s of wall time\n"
      "\n"
      "Flags also accept the --flag=value spelling.\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
    } else if (flag_value(argc, argv, i, "--scenario", v)) {
      o.scenarios.push_back(v);
    } else if (flag_value(argc, argv, i, "--algo", v)) {
      o.algos.push_back(v);
    } else if (flag_value(argc, argv, i, "--record", v)) {
      o.record_path = v;
    } else if (flag_value(argc, argv, i, "--replay", v)) {
      o.replay_path = v;
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (flag_value(argc, argv, i, "--seed", v)) {
      o.seed = cli::parse_count("--seed", v);
      o.seed_set = true;
    } else if (flag_value(argc, argv, i, "--threads", v)) {
      o.threads = cli::parse_count<unsigned>("--threads", v);
    } else if (flag_value(argc, argv, i, "--reps", v)) {
      o.reps = cli::parse_count<std::size_t>("--reps", v, 1);
    } else if (arg == "--ci") {
      o.ci = true;
    } else if (flag_value(argc, argv, i, "--csv", v)) {
      o.csv_path = v;
    } else if (flag_value(argc, argv, i, "--json", v)) {
      o.json_path = v;
    } else if (flag_value(argc, argv, i, "--trace-out", v)) {
      o.trace_out = v;
    } else if (flag_value(argc, argv, i, "--spans-csv", v)) {
      o.spans_csv = v;
    } else if (flag_value(argc, argv, i, "--slowest", v)) {
      o.slowest = cli::parse_count<std::size_t>("--slowest", v);
    } else if (flag_value(argc, argv, i, "--gauges", v)) {
      o.gauges_path = v;
    } else if (flag_value(argc, argv, i, "--gauge-interval-ms", v)) {
      // At least 1 ns once converted: a zero sampling period never ends.
      o.gauge_interval_ms =
          cli::parse_number("--gauge-interval-ms", v, 1e-6, cli::kMaxFlagMs);
    } else if (flag_value(argc, argv, i, "--progress", v)) {
      o.progress_path = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  if (o.ci && o.reps < 2) {
    // A requested error bar must fail fast, not degrade to a point estimate.
    std::cerr << "--ci needs --reps >= 2 (confidence intervals require "
                 "independent replications)\n";
    usage(2);
  }
  return o;
}

std::vector<scenario::ScenarioSpec> select_scenarios(const Options& o) {
  std::vector<scenario::ScenarioSpec> specs;
  if (o.scenarios.empty() ||
      (o.scenarios.size() == 1 && o.scenarios[0] == "all")) {
    specs = scenario::registry();
  } else {
    for (const std::string& name : o.scenarios) {
      specs.push_back(scenario::find_scenario(name));
    }
  }
  for (scenario::ScenarioSpec& s : specs) {
    if (o.seed_set) s.system.seed = o.seed;
    if (o.quick) {
      s.warmup = sim::from_ms(300);
      s.measure = sim::from_ms(1500);
    }
  }
  return specs;
}

std::vector<algo::Algorithm> select_algorithms(const Options& o) {
  if (o.algos.empty()) return {algo::Algorithm::kLassWithLoan};
  if (o.algos.size() == 1 && o.algos[0] == "all") {
    return algo::all_algorithms();
  }
  std::vector<algo::Algorithm> out;
  for (const std::string& name : o.algos) {
    out.push_back(algo::algorithm_from_name(name));
  }
  return out;
}

void emit_outputs(const Table& table,
                  const std::vector<experiment::LabeledResult>& results,
                  const Options& o) {
  table.print(std::cout);
  if (!o.csv_path.empty()) {
    table.write_csv(o.csv_path);
    std::cout << "(csv: " << o.csv_path << ")\n";
  }
  if (!o.json_path.empty()) {
    experiment::write_results_json_file(o.json_path, "mra_scenarios",
                                        results);
    std::cout << "(json: " << o.json_path << ")\n";
  }
}

int run_list() {
  Table table({"scenario", "what it models"});
  for (const scenario::ScenarioSpec& s : scenario::registry()) {
    table.add_row({s.name, s.summary});
  }
  table.print(std::cout);
  return 0;
}

int run_record(const Options& o) {
  if (o.scenarios.size() != 1 || o.scenarios[0] == "all") {
    std::cerr << "--record needs exactly one --scenario\n";
    return 2;
  }
  // Recording produces a trace file, not result tables: a requested result
  // artifact, thread count or replication count would be silently dropped,
  // so fail fast.
  if (!o.json_path.empty() || !o.csv_path.empty() || o.threads != 0 ||
      o.reps != 1) {
    std::cerr << "--json/--csv/--threads/--reps do not apply to --record\n";
    return 2;
  }
  const auto algos = select_algorithms(o);
  if (algos.size() != 1) {
    std::cerr << "--record needs exactly one --algo\n";
    return 2;
  }
  const auto specs = select_scenarios(o);
  const scenario::RequestTrace trace =
      scenario::record_scenario(specs[0], algos[0]);
  scenario::save_trace(o.record_path, trace);
  std::cout << "recorded " << trace.events.size() << " requests ("
            << specs[0].name << ", " << algo::to_string(algos[0]) << ") to "
            << o.record_path << "\n";
  return 0;
}

int run_replay(const Options& o) {
  if (o.threads != 0) {
    std::cerr << "--threads applies to scenario sweeps; replays run "
                 "sequentially\n";
    return 2;
  }
  if (o.reps != 1) {
    // A replay consumes a fixed recorded request sequence: rerunning it
    // cannot produce an independent replication, only the same input again.
    std::cerr << "--reps does not apply to --replay (a trace fixes the "
                 "request sequence; record more traces instead)\n";
    return 2;
  }
  const scenario::RequestTrace trace = scenario::load_trace(o.replay_path);
  std::cout << "replaying " << trace.events.size() << " requests"
            << (trace.scenario.empty() ? std::string()
                                       : " (scenario " + trace.scenario + ")")
            << " over N=" << trace.num_sites << ", M=" << trace.num_resources
            << "\n";
  scenario::ReplayOptions ropts;
  if (o.seed_set) ropts.seed = o.seed;

  Table table({"algorithm", "use-rate %", "mean wait (ms)", "completed",
               "msgs/CS", "safety", "liveness"});
  std::vector<experiment::LabeledResult> results;
  bool ok = true;
  for (algo::Algorithm alg : select_algorithms(o)) {
    check::Monitor monitor(check::MonitorConfig::safety_only(
        trace.num_sites, trace.num_resources));
    ropts.observer = &monitor;
    const scenario::ReplayResult r = scenario::replay_trace(trace, alg, ropts);
    ok = ok && monitor.ok() && r.completed_all;
    table.add_row({r.metrics.algorithm, Table::fmt(r.metrics.use_rate * 100, 1),
                   Table::fmt(r.metrics.waiting_mean_ms, 2),
                   std::to_string(r.metrics.requests_completed),
                   Table::fmt(r.metrics.messages_per_cs, 1),
                   monitor.ok() ? "ok" : "VIOLATED",
                   r.completed_all ? "ok" : "INCOMPLETE"});
    results.push_back(experiment::LabeledResult{
        "replay:" + (trace.scenario.empty() ? o.replay_path : trace.scenario),
        r.metrics});
  }
  emit_outputs(table, results, o);
  if (!ok) {
    std::cerr << "replay FAILED: safety or liveness violated\n";
    return 1;
  }
  return 0;
}

/// Flight-recorder mode: one scenario, one algorithm, run sequentially with
/// an obs::FlightRecorder attached; dump the requested artifacts. The trace
/// and CSV depend only on simulated time, so repeat runs are byte-identical.
int run_recorder_mode(const Options& o) {
  const auto specs = select_scenarios(o);
  const auto algos = select_algorithms(o);
  if (specs.size() != 1 || algos.size() != 1) {
    std::cerr << "--trace-out/--spans-csv/--gauges record one run: pass "
                 "exactly one --scenario and one --algo\n";
    return 2;
  }
  if (o.threads != 0 || o.reps != 1) {
    std::cerr << "--threads/--reps do not apply to recorder runs (one "
                 "sequential run)\n";
    return 2;
  }

  obs::FlightRecorder recorder;
  const bool want_gauges = !o.gauges_path.empty() || !o.trace_out.empty();
  const experiment::ExperimentResult result = scenario::run_scenario(
      specs[0], algos[0], &recorder, [&](algo::AllocationSystem& system) {
        if (want_gauges) {
          recorder.enable_gauges(system.simulator(), system.network(),
                                 sim::from_ms(o.gauge_interval_ms));
        }
      });

  Table table({"scenario", "algorithm", "use-rate %", "mean wait (ms)",
               "completed", "msgs/CS"});
  table.add_row({specs[0].name, result.algorithm,
                 Table::fmt(result.use_rate * 100, 1),
                 Table::fmt(result.waiting_mean_ms, 2),
                 std::to_string(result.requests_completed),
                 Table::fmt(result.messages_per_cs, 1)});
  table.print(std::cout);
  std::cout << "recorded " << recorder.spans().size() << " spans, "
            << recorder.messages().size() << " messages, "
            << recorder.gauges().size() << " gauge samples\n";

  if (!o.trace_out.empty()) {
    std::ofstream os(o.trace_out, std::ios::binary);
    if (!os) {
      std::cerr << "cannot write " << o.trace_out << "\n";
      return 1;
    }
    obs::write_chrome_trace(recorder, os);
    std::cout << "(trace: " << o.trace_out
              << " — load in https://ui.perfetto.dev)\n";
  }
  if (!o.spans_csv.empty()) {
    std::ofstream os(o.spans_csv, std::ios::binary);
    if (!os) {
      std::cerr << "cannot write " << o.spans_csv << "\n";
      return 1;
    }
    if (o.slowest > 0) {
      obs::write_spans_csv(recorder, obs::slowest_spans(recorder, o.slowest),
                           os);
    } else {
      obs::write_spans_csv(recorder, os);
    }
    std::cout << "(spans: " << o.spans_csv << ")\n";
  }
  if (!o.gauges_path.empty()) {
    std::ofstream os(o.gauges_path, std::ios::binary);
    if (!os) {
      std::cerr << "cannot write " << o.gauges_path << "\n";
      return 1;
    }
    obs::write_gauges_json(recorder, os);
    os << "\n";
    std::cout << "(gauges: " << o.gauges_path << ")\n";
  }
  return 0;
}

int run_sweep_mode(const Options& o) {
  const auto specs = select_scenarios(o);
  const auto algos = select_algorithms(o);

  std::vector<experiment::SweepJob> jobs;
  std::vector<std::string> labels;
  for (const scenario::ScenarioSpec& spec : specs) {
    for (algo::Algorithm alg : algos) {
      jobs.emplace_back(
          [&spec, alg]() { return scenario::run_scenario(spec, alg); });
      labels.push_back(spec.name);
    }
  }
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_failed{0};
  std::vector<experiment::ExperimentResult> results;
  {
    const std::unique_ptr<obs::Heartbeat> heartbeat =
        obs::job_heartbeat("scenario-sweep", o.progress_path, jobs_done,
                           jobs_failed, jobs.size());
    results = experiment::run_sweep(jobs, o.threads, &jobs_done, &jobs_failed);
  }

  Table table({"scenario", "algorithm", "use-rate %", "mean wait (ms)",
               "stddev", "completed", "msgs/CS", "loans"});
  std::vector<experiment::LabeledResult> labeled;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    table.add_row({labels[i], r.algorithm, Table::fmt(r.use_rate * 100, 1),
                   Table::fmt(r.waiting_mean_ms, 2),
                   Table::fmt(r.waiting_stddev_ms, 2),
                   std::to_string(r.requests_completed),
                   Table::fmt(r.messages_per_cs, 1),
                   std::to_string(r.loans_used)});
    labeled.push_back(experiment::LabeledResult{labels[i], r});
  }
  emit_outputs(table, labeled, o);
  return 0;
}

/// Replicated sweep (--reps N >= 2): every (scenario, algorithm) pair runs N
/// times on independent seed substreams of the scenario's base seed; rows
/// carry mean ± 95% CI and the pooled p50/p95/p99 waiting quantiles.
int run_replicated_mode(const Options& o) {
  const auto specs = select_scenarios(o);
  const auto algos = select_algorithms(o);

  // Heartbeat granularity: one tick per finished replication (the unit of
  // work), counted from inside the make wrapper.
  auto reps_done = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::vector<experiment::ReplicatedJob> jobs;
  std::vector<std::string> labels;
  for (const scenario::ScenarioSpec& spec : specs) {
    for (algo::Algorithm alg : algos) {
      experiment::ReplicatedJob job;
      job.base_seed = spec.system.seed;
      job.replications = o.reps;
      job.make = [spec, alg, reps_done](std::uint64_t rep_seed) {
        scenario::ScenarioSpec s = spec;
        s.system.seed = rep_seed;
        auto r = scenario::run_scenario(s, alg);
        reps_done->fetch_add(1, std::memory_order_relaxed);
        return r;
      };
      jobs.push_back(std::move(job));
      labels.push_back(spec.name);
    }
  }
  std::atomic<std::uint64_t> reps_failed{0};
  std::vector<experiment::ReplicatedResult> results;
  {
    const std::unique_ptr<obs::Heartbeat> heartbeat =
        obs::job_heartbeat("replicated-sweep", o.progress_path, *reps_done,
                           reps_failed, jobs.size() * o.reps);
    results =
        experiment::run_replicated_jobs(jobs, o.threads, nullptr, &reps_failed);
  }

  Table table({"scenario", "algorithm", "use-rate %", "mean wait (ms)", "p50",
               "p95", "p99", "completed", "msgs/CS"});
  std::vector<experiment::LabeledReplicatedResult> labeled;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    metrics::Estimate use_pct = r.use_rate;
    use_pct.mean *= 100.0;
    use_pct.ci95_half *= 100.0;
    table.add_row({labels[i], r.algorithm, experiment::fmt_estimate(use_pct, 1),
                   experiment::fmt_estimate(r.waiting_mean_ms, 2),
                   Table::fmt(r.waiting_p50_ms, 2),
                   Table::fmt(r.waiting_p95_ms, 2),
                   Table::fmt(r.waiting_p99_ms, 2),
                   std::to_string(r.requests_completed),
                   experiment::fmt_estimate(r.messages_per_cs, 1)});
    labeled.push_back(experiment::LabeledReplicatedResult{labels[i], r});
  }
  table.print(std::cout);
  if (!o.csv_path.empty()) {
    table.write_csv(o.csv_path);
    std::cout << "(csv: " << o.csv_path << ")\n";
  }
  if (!o.json_path.empty()) {
    experiment::write_replicated_json_file(o.json_path, "mra_scenarios",
                                           labeled);
    std::cout << "(json: " << o.json_path << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const bool recorder_mode =
      !o.trace_out.empty() || !o.spans_csv.empty() || !o.gauges_path.empty();
  if (recorder_mode && (!o.record_path.empty() || !o.replay_path.empty())) {
    std::cerr << "--trace-out/--spans-csv/--gauges record a live run; they "
                 "do not combine with --record/--replay\n";
    return 2;
  }
  try {
    if (o.list) return run_list();
    if (!o.record_path.empty()) return run_record(o);
    if (!o.replay_path.empty()) return run_replay(o);
    if (recorder_mode) return run_recorder_mode(o);
    if (o.reps > 1) return run_replicated_mode(o);
    return run_sweep_mode(o);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
