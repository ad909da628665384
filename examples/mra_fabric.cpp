// mra_fabric — the distributed sweep fabric CLI (DESIGN.md §15): shard a
// scenario sweep, a replicated grid, or an explorer seed range across worker
// processes, checkpoint progress, and merge shards to bytes identical to the
// single-process run.
//
// Examples (an indented line continues the command above it):
//   # single process, the reference output
//   mra_fabric --local --grid sweep --scenario all --algo all --quick
//       --out ref.json
//
//   # one coordinator + any number of workers sharing a spool directory
//   # (NFS works; hosts without a shared filesystem cannot join)
//   mra_fabric --coordinator --spool /tmp/spool --grid sweep --scenario all
//       --algo all --quick --out merged.json &
//   mra_fabric --worker --spool /tmp/spool &
//   mra_fabric --worker --spool /tmp/spool &
//
//   # after killing anything, continue where the checkpoint left off
//   mra_fabric --coordinator --spool /tmp/spool --resume ... --out merged.json
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "core/cli.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/merge.hpp"
#include "fabric/transport.hpp"
#include "fabric/worker.hpp"
#include "scenario/registry.hpp"

using namespace mra;
using cli::flag_value;

namespace {

struct Options {
  enum class Mode { kNone, kLocal, kCoordinator, kWorker } mode = Mode::kNone;

  // Grid (coordinator / local).
  fabric::GridSpec grid;
  std::vector<std::string> scenarios;  // raw flags, "all" not yet expanded
  std::vector<std::string> algos;
  std::uint64_t chunk = 1;

  // Spool.
  std::string spool;
  std::string name;
  double lease_timeout_sec = 30.0;
  double poll_interval_sec = 0.2;
  bool resume = false;

  // Output.
  std::string out_path;
  std::string progress_path;
  unsigned threads = 0;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "mra_fabric — distributed sweep fabric (coordinator / workers)\n"
      "\n"
      "Mode (exactly one):\n"
      "  --local                run the whole grid in this process (the\n"
      "                         reference output the fabric must match)\n"
      "  --coordinator          shard the grid, collect results, merge\n"
      "  --worker               lease jobs and run them\n"
      "\n"
      "Grid (--local / --coordinator):\n"
      "  --grid KIND            sweep | replicated | explore (default sweep)\n"
      "  --scenario NAME|all    scenario(s) (repeatable; default all)\n"
      "  --algo NAME|all        algorithm(s) (repeatable; default lass-loan)\n"
      "  --reps N               replications per pair (grid replicated)\n"
      "  --seeds N              seeds per explore job (grid explore)\n"
      "  --jobs N               explore job count (grid explore)\n"
      "  --quick                short windows (CI-friendly)\n"
      "  --seed S               override scenario seeds / explore base seed\n"
      "  --chunk N              jobs per lease (default 1)\n"
      "\n"
      "Spool (--coordinator / --worker):\n"
      "  --spool DIR            spool directory: manifest, claims, results,\n"
      "                         checkpoint log (required; shared by every\n"
      "                         host of a multi-host run)\n"
      "  --name NAME            worker identity (default w<pid>)\n"
      "  --lease-timeout SEC    worker: steal leases idle this long (30)\n"
      "  --poll-interval SEC    idle poll period (0.2)\n"
      "  --resume               coordinator: continue from the checkpoint\n"
      "\n"
      "Output:\n"
      "  --out PATH             merged report JSON (default stdout)\n"
      "  --progress PATH        heartbeat progress file (stderr + JSON)\n"
      "  --threads T            --local sweep threads (0 = hardware)\n"
      "\n"
      "Flags also accept the --flag=value spelling.\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--local") {
      o.mode = Options::Mode::kLocal;
    } else if (arg == "--coordinator") {
      o.mode = Options::Mode::kCoordinator;
    } else if (arg == "--worker") {
      o.mode = Options::Mode::kWorker;
    } else if (flag_value(argc, argv, i, "--grid", v)) {
      try {
        o.grid.kind = fabric::grid_kind_from_name(v);
      } catch (const std::invalid_argument& e) {
        std::cerr << "--grid: " << e.what() << "\n";
        usage(2);
      }
    } else if (flag_value(argc, argv, i, "--scenario", v)) {
      o.scenarios.push_back(v);
    } else if (flag_value(argc, argv, i, "--algo", v)) {
      o.algos.push_back(v);
    } else if (flag_value(argc, argv, i, "--reps", v)) {
      o.grid.replications = cli::parse_count("--reps", v);
    } else if (flag_value(argc, argv, i, "--seeds", v)) {
      o.grid.seeds_per_job = cli::parse_count("--seeds", v);
    } else if (flag_value(argc, argv, i, "--jobs", v)) {
      o.grid.explore_jobs = cli::parse_count("--jobs", v);
    } else if (arg == "--quick") {
      o.grid.quick = true;
    } else if (flag_value(argc, argv, i, "--seed", v)) {
      o.grid.seed = cli::parse_count("--seed", v);
      o.grid.seed_set = true;
    } else if (flag_value(argc, argv, i, "--chunk", v)) {
      o.chunk = cli::parse_count("--chunk", v, 1);
    } else if (flag_value(argc, argv, i, "--spool", v)) {
      o.spool = v;
    } else if (flag_value(argc, argv, i, "--name", v)) {
      o.name = v;
    } else if (flag_value(argc, argv, i, "--lease-timeout", v)) {
      // TransportTiming::validate checks the range once every flag is read.
      o.lease_timeout_sec = cli::parse_number("--lease-timeout", v);
    } else if (flag_value(argc, argv, i, "--poll-interval", v)) {
      o.poll_interval_sec = cli::parse_number("--poll-interval", v);
    } else if (arg == "--resume") {
      o.resume = true;
    } else if (flag_value(argc, argv, i, "--out", v)) {
      o.out_path = v;
    } else if (flag_value(argc, argv, i, "--progress", v)) {
      o.progress_path = v;
    } else if (flag_value(argc, argv, i, "--threads", v)) {
      o.threads = cli::parse_count<unsigned>("--threads", v);
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  if (o.mode == Options::Mode::kNone) {
    std::cerr << "pick a mode: --local, --coordinator, or --worker\n";
    usage(2);
  }

  // Expand name lists now so the manifest carries concrete names and every
  // worker resolves the identical grid.
  if (o.scenarios.empty() ||
      (o.scenarios.size() == 1 && o.scenarios[0] == "all")) {
    o.grid.scenarios = scenario::scenario_names();
  } else {
    o.grid.scenarios = o.scenarios;
  }
  if (o.algos.empty()) {
    o.grid.algorithms = {"lass-loan"};
  } else if (o.algos.size() == 1 && o.algos[0] == "all") {
    for (const algo::Algorithm a : algo::all_algorithms()) {
      o.grid.algorithms.emplace_back(algo::cli_name(a));
    }
  } else {
    o.grid.algorithms = o.algos;
  }
  try {
    fabric::TransportTiming{o.lease_timeout_sec, o.poll_interval_sec}
        .validate();
    if (o.mode != Options::Mode::kWorker) o.grid.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    usage(2);
  }
  return o;
}

int run_local_mode(const Options& o) {
  if (o.out_path.empty()) {
    return fabric::run_local(o.grid, o.threads, std::cout, o.progress_path);
  }
  std::ofstream os(o.out_path, std::ios::binary);
  if (!os) {
    std::cerr << "fabric: cannot write '" << o.out_path << "'\n";
    return 1;
  }
  const int code = fabric::run_local(o.grid, o.threads, os, o.progress_path);
  if (code == 0) std::cerr << "fabric: wrote " << o.out_path << "\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    switch (o.mode) {
      case Options::Mode::kLocal:
        return run_local_mode(o);
      case Options::Mode::kCoordinator: {
        fabric::CoordinatorOptions copts;
        copts.spool = o.spool;
        copts.chunk = o.chunk;
        copts.resume = o.resume;
        copts.poll_interval_sec = o.poll_interval_sec;
        copts.out_path = o.out_path;
        copts.progress_path = o.progress_path;
        return fabric::run_coordinator(o.grid, copts);
      }
      case Options::Mode::kWorker: {
        fabric::WorkerOptions wopts;
        wopts.spool = o.spool;
        wopts.name = o.name;
        wopts.lease_timeout_sec = o.lease_timeout_sec;
        wopts.poll_interval_sec = o.poll_interval_sec;
        wopts.progress_path = o.progress_path;
        return fabric::run_worker(wopts);
      }
      case Options::Mode::kNone: break;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 2;
}
