// lass_sim — command-line front end to the whole library: pick an algorithm,
// workload and topology, run one experiment, print every metric. This is the
// "downstream user" entry point; every knob of the public API is reachable.
//
// Examples:
//   lass_sim --algo=lass-loan --n=32 --m=80 --phi=8 --rho=0.5
//   lass_sim --algo=bl --phi=4 --rho=5 --measure-ms=30000 --gantt
//   lass_sim --algo=lass --mark=max --loan-threshold=2 --seed=7
#include <cstring>
#include <iostream>
#include <string>

#include "core/cli.hpp"
#include "experiment/gantt.hpp"
#include "experiment/table.hpp"
#include "scenario/runner.hpp"

using namespace mra;

namespace {

struct CliOptions {
  scenario::ScenarioSpec spec;
  bool gantt = false;
  bool verbose = false;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "lass_sim — distributed multi-resource allocation simulator\n"
      "\n"
      "  --algo=A          incremental | bl | bl-early | lass | lass-loan |\n"
      "                    central | central-fifo | maddi      (default lass-loan)\n"
      "  --n=N             number of sites                     (default 32)\n"
      "  --m=M             number of resources                 (default 80)\n"
      "  --phi=P           max request size                    (default 4)\n"
      "  --rho=R           load: beta = rho*(alpha+gamma); low = high load (default 5)\n"
      "  --alpha-min-ms=X  shortest CS (default 5)\n"
      "  --alpha-max-ms=X  longest CS  (default 35)\n"
      "  --gamma-ms=X      network latency (default 0.6)\n"
      "  --mark=F          avg | max | sum | min   scheduling function A\n"
      "  --loan-threshold=K  ask a loan when <= K resources missing (default 1)\n"
      "  --clusters=C      >1: two-level topology with C clusters\n"
      "  --wan-ms=X        inter-cluster latency (default 10)\n"
      "  --warmup-ms=X     warm-up window  (default 2000)\n"
      "  --measure-ms=X    measured window (default 10000)\n"
      "  --seed=S          RNG seed (default 1)\n"
      "  --gantt           render a Gantt diagram of the measured window\n"
      "  --verbose         per-message-kind statistics\n";
  std::exit(code);
}

algo::Algorithm parse_algo(const std::string& name, CliOptions& opts) {
  if (name == "incremental") return algo::Algorithm::kIncremental;
  if (name == "bl") return algo::Algorithm::kBouabdallahLaforest;
  if (name == "bl-early") {
    opts.spec.system.bl_release_control_token_early = true;
    return algo::Algorithm::kBouabdallahLaforest;
  }
  if (name == "lass") return algo::Algorithm::kLassWithoutLoan;
  if (name == "lass-loan") return algo::Algorithm::kLassWithLoan;
  if (name == "central") return algo::Algorithm::kCentralSharedMemory;
  if (name == "central-fifo") {
    opts.spec.system.central_strict_fifo = true;
    return algo::Algorithm::kCentralSharedMemory;
  }
  if (name == "maddi") return algo::Algorithm::kMaddi;
  std::cerr << "unknown algorithm: " << name << "\n";
  usage(2);
}

MarkPolicy parse_mark(const std::string& name) {
  if (name == "avg") return MarkPolicy::kAverageNonZero;
  if (name == "max") return MarkPolicy::kMaxValue;
  if (name == "sum") return MarkPolicy::kSumNonZero;
  if (name == "min") return MarkPolicy::kMinNonZero;
  std::cerr << "unknown mark function: " << name << "\n";
  usage(2);
}

/// A millisecond flag, finite and in [0, cli::kMaxFlagMs].
sim::SimDuration ms_flag(const char* flag, const std::string& v) {
  return sim::from_ms(cli::parse_number(flag, v, 0, cli::kMaxFlagMs));
}

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  auto& sys = opts.spec.system;
  auto& wl = opts.spec.workload;
  sys.num_sites = 32;
  sys.num_resources = 80;
  wl = workload::medium_load(4, 80);

  auto value = [](const std::string& arg) {
    return arg.substr(arg.find('=') + 1);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto has = [&](const char* key) { return arg.rfind(key, 0) == 0; };
    if (arg == "-h" || arg == "--help") usage(0);
    else if (has("--algo=")) sys.algorithm = parse_algo(value(arg), opts);
    else if (has("--n=")) sys.num_sites = cli::parse_count<int>("--n", value(arg), 1);
    else if (has("--m=")) sys.num_resources = cli::parse_count<int>("--m", value(arg), 1);
    else if (has("--phi=")) wl.phi = cli::parse_count<int>("--phi", value(arg), 1);
    else if (has("--rho=")) wl.rho = cli::parse_number("--rho", value(arg), 0);
    else if (has("--alpha-min-ms=")) wl.alpha_min = ms_flag("--alpha-min-ms", value(arg));
    else if (has("--alpha-max-ms=")) wl.alpha_max = ms_flag("--alpha-max-ms", value(arg));
    else if (has("--gamma-ms=")) {
      wl.gamma = ms_flag("--gamma-ms", value(arg));
      sys.network_latency = wl.gamma;
    } else if (has("--mark=")) sys.mark_policy = parse_mark(value(arg));
    else if (has("--loan-threshold=")) sys.loan_threshold = cli::parse_count<int>("--loan-threshold", value(arg));
    else if (has("--clusters=")) sys.hierarchical_clusters = cli::parse_count<int>("--clusters", value(arg), 1);
    else if (has("--wan-ms=")) sys.hierarchical_remote_latency = ms_flag("--wan-ms", value(arg));
    else if (has("--warmup-ms=")) opts.spec.warmup = ms_flag("--warmup-ms", value(arg));
    else if (has("--measure-ms=")) opts.spec.measure = ms_flag("--measure-ms", value(arg));
    else if (has("--seed=")) sys.seed = cli::parse_count("--seed", value(arg));
    else if (arg == "--gantt") opts.gantt = true;
    else if (arg == "--verbose") opts.verbose = true;
    else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  wl.num_resources = sys.num_resources;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  try {
    opts = parse(argc, argv);
    opts.spec.validate();
  } catch (const std::exception& e) {
    std::cerr << "bad arguments: " << e.what() << "\n";
    return 2;
  }

  const scenario::ScenarioSpec& spec = opts.spec;
  obs::FlightRecorder recorder;
  const auto result = scenario::run_scenario(
      spec, spec.system.algorithm, opts.gantt ? &recorder : nullptr);

  std::cout << "algorithm        : " << result.algorithm << "\n"
            << "sites / resources: " << spec.system.num_sites << " / "
            << spec.system.num_resources << "\n"
            << "phi / rho        : " << result.phi << " / " << result.rho
            << "  (beta = " << sim::to_ms(spec.workload.beta())
            << " ms)\n"
            << "completed CS     : " << result.requests_completed << "\n"
            << "resource use rate: "
            << experiment::Table::fmt(result.use_rate * 100, 2) << " %\n"
            << "waiting time     : "
            << experiment::Table::fmt(result.waiting_mean_ms, 2) << " ms (sd "
            << experiment::Table::fmt(result.waiting_stddev_ms, 2) << ")\n"
            << "messages         : " << result.messages << " ("
            << experiment::Table::fmt(result.messages_per_cs, 1) << " per CS, "
            << result.bytes / 1024 << " KiB)\n";
  if (result.loans_used + result.loans_failed > 0) {
    std::cout << "loans            : " << result.loans_used << " used, "
              << result.loans_failed << " failed\n";
  }
  if (opts.verbose) {
    std::cout << "\nper message kind:\n";
    for (const auto& [kind, count] : result.messages_by_kind) {
      std::cout << "  " << kind << ": " << count << "\n";
    }
  }
  if (opts.gantt) {
    experiment::GanttOptions gopt;
    gopt.columns = 110;
    gopt.start = spec.warmup;
    gopt.end = spec.warmup + spec.measure;
    std::cout << "\n";
    experiment::render_gantt(std::cout,
                             experiment::gantt_spans(recorder, spec.warmup),
                             spec.system.num_resources, gopt);
  }
  return 0;
}
