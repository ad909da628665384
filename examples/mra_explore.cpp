// mra_explore — the adversarial schedule explorer CLI. Three modes:
//
//  * Fuzz (default): seed-sweeps registry scenarios (and the raw mutex /
//    Chandy-Misra ring substrates) under randomized latency perturbation
//    with the full conformance-oracle set attached, stops at the first
//    violation, and emits a minimized replayable repro trace plus a JSON
//    violation report. --threads shards the sweep without changing any
//    output; --neighborhood additionally perturbs around a found violation.
//  * Exhaustive (--exhaustive): systematic enumeration of every same-instant
//    commutation on a tiny configuration (DPOR-style model checking),
//    printing coverage stats — schedules explored vs. orderings pruned.
//  * Replay (--replay): checked replay of a repro trace. `# mra-trace v2`
//    traces are self-contained (algorithm, perturbation seed, delay bound,
//    quantum, mutant all embedded) and need no other flags; v1 traces take
//    the original --algo/--seed/--replay-delay-ns spelling.
//
// Examples:
//   mra_explore --scenario paper-phi4 --algo all --seeds 10 --quick
//   mra_explore --mutex all --seeds 10 --threads 4
//   mra_explore --exhaustive --mutex nt --sites 3 --requests 2
//   mra_explore --exhaustive --cm-ring --sites 4
//   mra_explore --replay /tmp/repro/repro_mutex_nt_s3.mra
//
// Exit status: 0 = no violation found, 1 = violation found, 2 = bad usage
// or configuration error (unknown scenario/algorithm, unwritable output...).
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/dpor.hpp"
#include "check/explore.hpp"
#include "check/mutant.hpp"
#include "check/violation.hpp"
#include "core/cli.hpp"
#include "core/wire.hpp"
#include "obs/heartbeat.hpp"
#include "scenario/registry.hpp"

using namespace mra;
using cli::flag_value;
using cli::kMaxFlagMs;
using cli::parse_count;
using cli::parse_number;

namespace {

struct Options {
  std::vector<std::string> scenarios;  // empty = all
  std::vector<std::string> algos;      // empty = all
  std::vector<std::string> mutexes;    // empty = none; "all" = nt+sk+ra
  std::string replay_path;             // checked replay of a repro trace
  std::uint64_t replay_seed = 1;
  std::int64_t replay_delay_ns = 0;    // exact drawn bound of the found run
  int seeds = 10;
  std::uint64_t base_seed = 1;
  double delay_bound_ms = 2.0;
  double horizon_ms = 60'000.0;
  double max_msgs_per_cs = 0.0;
  bool quick = false;
  bool keep_going = false;
  std::string trace_dir;
  std::string json_path;
  std::string mutant;  // seeded bug to activate ("" = none)

  // Explorer upgrades ---------------------------------------------------------
  int threads = 1;           // sweep parallelism (0 = hardware)
  int neighborhood = 0;      // perturbation variants around a found bug
  bool exhaustive = false;   // DPOR-style enumeration instead of fuzzing
  bool cm_ring = false;      // Chandy-Misra ring substrate
  int sites = 0;             // substrate/tiny-spec override (0 = default)
  int resources = 0;         // tiny-spec override (0 = default)
  int requests = 0;          // substrate requests per site (0 = default)
  std::uint64_t max_schedules = 0;  // exhaustive budget (0 = default)
  std::uint64_t max_branch = 0;     // per-choice-point cap (0 = default)
  double quantum_ms = -1.0;  // latency quantization grid (< 0 = default)
  std::string choices;       // forced choice prefix "0,2,1" (repro mode)
  std::string progress_path; // heartbeat progress file ("" = no heartbeat)
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "mra_explore — adversarial schedule explorer with online conformance "
      "oracles\n"
      "\n"
      "  --scenario NAME|all    registry scenario(s) to sweep (default all)\n"
      "  --algo NAME|all        algorithm(s): incremental | bl | lass |\n"
      "                         lass-loan | central | maddi (default all)\n"
      "  --mutex nt|sk|ra|all   also sweep raw mutex substrate(s)\n"
      "  --mutex-only ...       sweep only the mutex substrate(s)\n"
      "  --cm-ring              sweep the Chandy-Misra ring substrate\n"
      "  --replay PATH          checked replay of a repro trace. v2 traces\n"
      "                         are self-contained; v1 traces need --algo\n"
      "                         (and --seed / --replay-delay-ns). Exits 1\n"
      "                         when the violation re-triggers\n"
      "  --seed S               v1 replay: network/protocol seed (default 1)\n"
      "  --replay-delay-ns N    v1 replay: exact per-message delay bound of\n"
      "                         the found run (printed in the repro hint)\n"
      "  --seeds N              seed budget per (scenario, algorithm)\n"
      "                         (default 10)\n"
      "  --base-seed S          first seed of the sweep (default 1)\n"
      "  --delay-bound-ms D     max extra per-message delay drawn per run\n"
      "                         (default 2.0; 0 disables perturbation)\n"
      "  --horizon-ms H         bounded-waiting budget (default 60000)\n"
      "  --max-msgs-per-cs X    message-complexity bound (default off)\n"
      "  --quick                short scenario windows (CI-friendly)\n"
      "  --keep-going           do not stop the sweep at the first bug\n"
      "  --threads N            shard the sweep over N threads (0 = all\n"
      "                         cores). Reports are identical for any N\n"
      "  --neighborhood K       after a reproducing violation, try K\n"
      "                         perturbation variants around it and keep the\n"
      "                         smallest minimized repro\n"
      "  --trace-dir PATH       save repro traces here (default: no traces)\n"
      "  --json PATH            write the violation report as JSON\n"
      "  --progress PATH        heartbeat: live progress (runs done, and in\n"
      "                         exhaustive mode schedules explored / pruned)\n"
      "                         on stderr plus a JSON file at PATH, updated\n"
      "                         every ~2s of wall time\n"
      "  --mutant NAME          activate a seeded bug\n"
      "\n"
      "Exhaustive mode (DPOR-style model checking on tiny configurations):\n"
      "  --exhaustive           enumerate every same-instant commutation of\n"
      "                         one target per run: --mutex P (one of nt,\n"
      "                         sk, ra), or --cm-ring, or one scenario\n"
      "                         (--scenario NAME, default the tiny built-in\n"
      "                         config) under one --algo (default\n"
      "                         lass-loan; --algo all is refused). At\n"
      "                         --sites 3 --requests 2: nt 6 schedules, sk\n"
      "                         6 (114 pruned), ra 16 (744 pruned)\n"
      "  --sites N              substrate sites / tiny-spec sites\n"
      "  --resources M          tiny-spec resources\n"
      "  --requests R           substrate requests per site\n"
      "  --max-schedules N      schedule budget (default 20000)\n"
      "  --max-branch N         alternatives per choice point (default 720)\n"
      "  --quantum-ms Q         scenario latency quantization grid\n"
      "                         (default: the network latency)\n"
      "  --choices 0,2,1        force a choice prefix: replay exactly the\n"
      "                         schedule a previous run reported. Exits 2\n"
      "                         when an entry is not a decimal integer or\n"
      "                         the prefix does not fit the schedule\n"
      "\n"
      "Flags also accept the --flag=value spelling.\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  bool mutex_only = false;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flag_value(argc, argv, i, "--scenario", v)) {
      o.scenarios.push_back(v);
    } else if (flag_value(argc, argv, i, "--algo", v)) {
      o.algos.push_back(v);
    } else if (flag_value(argc, argv, i, "--mutex-only", v)) {
      o.mutexes.push_back(v);
      mutex_only = true;
    } else if (flag_value(argc, argv, i, "--mutex", v)) {
      o.mutexes.push_back(v);
    } else if (arg == "--cm-ring") {
      o.cm_ring = true;
    } else if (flag_value(argc, argv, i, "--replay", v)) {
      o.replay_path = v;
    } else if (flag_value(argc, argv, i, "--seed", v)) {
      o.replay_seed = parse_count("--seed", v);
    } else if (flag_value(argc, argv, i, "--replay-delay-ns", v)) {
      o.replay_delay_ns = parse_count<std::int64_t>("--replay-delay-ns", v);
    } else if (flag_value(argc, argv, i, "--seeds", v)) {
      o.seeds = parse_count<int>("--seeds", v, 1);
    } else if (flag_value(argc, argv, i, "--base-seed", v)) {
      o.base_seed = parse_count("--base-seed", v);
    } else if (flag_value(argc, argv, i, "--delay-bound-ms", v)) {
      o.delay_bound_ms = parse_number("--delay-bound-ms", v, 0, kMaxFlagMs);
    } else if (flag_value(argc, argv, i, "--horizon-ms", v)) {
      // At least 1 ns once converted; the starvation horizon must be > 0.
      o.horizon_ms = parse_number("--horizon-ms", v, 1e-6, kMaxFlagMs);
    } else if (flag_value(argc, argv, i, "--max-msgs-per-cs", v)) {
      o.max_msgs_per_cs = parse_number("--max-msgs-per-cs", v, 0);
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--keep-going") {
      o.keep_going = true;
    } else if (flag_value(argc, argv, i, "--threads", v)) {
      o.threads = parse_count<int>("--threads", v);
    } else if (flag_value(argc, argv, i, "--neighborhood", v)) {
      o.neighborhood = parse_count<int>("--neighborhood", v);
    } else if (arg == "--exhaustive") {
      o.exhaustive = true;
    } else if (flag_value(argc, argv, i, "--sites", v)) {
      o.sites = parse_count<int>("--sites", v, 1);
    } else if (flag_value(argc, argv, i, "--resources", v)) {
      o.resources = parse_count<int>("--resources", v, 1);
    } else if (flag_value(argc, argv, i, "--requests", v)) {
      o.requests = parse_count<int>("--requests", v, 1);
    } else if (flag_value(argc, argv, i, "--max-schedules", v)) {
      o.max_schedules = parse_count("--max-schedules", v, 1);
    } else if (flag_value(argc, argv, i, "--max-branch", v)) {
      o.max_branch = parse_count("--max-branch", v, 1);
    } else if (flag_value(argc, argv, i, "--quantum-ms", v)) {
      o.quantum_ms = parse_number("--quantum-ms", v, 0, kMaxFlagMs);
    } else if (flag_value(argc, argv, i, "--choices", v)) {
      o.choices = v;
    } else if (flag_value(argc, argv, i, "--trace-dir", v)) {
      o.trace_dir = v;
    } else if (flag_value(argc, argv, i, "--json", v)) {
      o.json_path = v;
    } else if (flag_value(argc, argv, i, "--progress", v)) {
      o.progress_path = v;
    } else if (flag_value(argc, argv, i, "--mutant", v)) {
      o.mutant = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(2);
    }
  }
  if (mutex_only ||
      (o.cm_ring && o.scenarios.empty() && o.mutexes.empty())) {
    o.scenarios.clear();
    o.algos.clear();
    o.scenarios.push_back("__none__");
  }
  return o;
}

check::MonitorConfig monitor_from(const Options& o) {
  check::MonitorConfig mc;
  mc.starvation_horizon =
      static_cast<sim::SimDuration>(o.horizon_ms * 1e6);
  mc.max_messages_per_cs = o.max_msgs_per_cs;
  return mc;
}

check::DporConfig dpor_from(const Options& o) {
  check::DporConfig cfg;
  if (o.max_schedules > 0) cfg.max_schedules = o.max_schedules;
  if (o.max_branch > 0) cfg.max_branch = o.max_branch;
  if (!o.choices.empty()) {
    std::istringstream is(o.choices);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      if (tok.empty()) continue;
      cfg.forced_prefix.push_back(parse_count("--choices", tok));
    }
    // A forced prefix is a repro request: run that one schedule and stop.
    cfg.max_schedules = 1;
  }
  return cfg;
}

std::string choices_to_string(const std::vector<std::uint64_t>& choices) {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(choices[i]);
  }
  return out;
}

void print_exhaustive_stats(const check::ExploreReport& report) {
  std::cout << "exhaustive: " << report.schedules_executed
            << " schedule(s) executed, " << report.choice_points
            << " choice point(s), " << report.orderings_pruned
            << " ordering(s) pruned by the partial-order reduction ("
            << (report.exhaustive_complete
                    ? "complete"
                    : (report.exhaustive_truncated ? "truncated"
                                                   : "stopped at violation"))
            << ")\n";
}

void print_report(const Options& o, const check::ExploreReport& report) {
  std::cout << "runs: " << report.runs
            << ", violating: " << report.violating_runs << "\n";
  if (o.exhaustive) print_exhaustive_stats(report);
  for (const check::FoundViolation& f : report.found) {
    std::cout << "\nVIOLATION in " << f.scenario << " / " << f.algorithm
              << " (seed " << f.seed << ", delay bound "
              << sim::to_ms(f.delay_bound) << "ms)\n";
    for (const check::Violation& v : f.violations) {
      std::cout << "  [" << v.oracle << "] at " << sim::to_ms(v.at) << "ms: "
                << v.detail << "\n";
    }
    if (!f.violations.empty() &&
        !f.violations.front().recent_events.empty()) {
      std::cout << "  last events:\n";
      const auto& events = f.violations.front().recent_events;
      const std::size_t show = events.size() > 8 ? 8 : events.size();
      for (std::size_t i = events.size() - show; i < events.size(); ++i) {
        std::cout << "    " << events[i] << "\n";
      }
    }
    if (!f.commutation.empty()) {
      std::cout << "  schedule (choice stack): "
                << choices_to_string(f.commutation)
                << "  (rerun with --choices to force it)\n";
    }
    if (f.neighborhood_tried > 0) {
      std::cout << "  neighborhood: " << f.neighborhood_violating << "/"
                << f.neighborhood_tried << " perturbation variants also "
                << "violate\n";
    }
    if (!f.trace_path.empty()) {
      std::cout << "  repro trace: " << f.trace_path << " ("
                << f.minimized_events << "/" << f.trace_events
                << " events after minimization)\n"
                // v2 traces embed algorithm, seed, delay bound, quantum and
                // mutant — the path alone reproduces the run.
                << "  replay: mra_explore --replay " << f.trace_path << "\n";
    } else {
      // The perturbation draw is a function of (run seed, case, bound), so
      // this exact invocation re-creates the violating run bit for bit.
      std::cout << "  repro: rerun this case with --base-seed " << f.seed
                << " --seeds 1 --delay-bound-ms " << o.delay_bound_ms
                << (o.quick ? " --quick" : "") << " (deterministic)\n";
    }
  }
}

void write_report_json(const std::string& path, const Options& o,
                       const check::ExploreReport& report) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  os << "{\n  \"tool\": \"mra_explore\",\n";
  os << "  \"mode\": \"" << (o.exhaustive ? "exhaustive" : "fuzz") << "\",\n";
  os << "  \"seeds_per_case\": " << o.seeds << ",\n";
  os << "  \"base_seed\": " << o.base_seed << ",\n";
  os << "  \"delay_bound_ms\": " << o.delay_bound_ms << ",\n";
  os << "  \"runs\": " << report.runs << ",\n";
  os << "  \"violating_runs\": " << report.violating_runs << ",\n";
  os << "  \"coverage\": {\n";
  os << "    \"schedules_executed\": " << report.schedules_executed << ",\n";
  os << "    \"choice_points\": " << report.choice_points << ",\n";
  os << "    \"orderings_pruned\": " << report.orderings_pruned << ",\n";
  os << "    \"complete\": "
     << (report.exhaustive_complete ? "true" : "false") << ",\n";
  os << "    \"truncated\": "
     << (report.exhaustive_truncated ? "true" : "false") << "\n  },\n";
  os << "  \"found\": [";
  for (std::size_t i = 0; i < report.found.size(); ++i) {
    const check::FoundViolation& f = report.found[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\n";
    os << "      \"scenario\": \"" << wire::escape(f.scenario)
       << "\",\n";
    os << "      \"algorithm\": \"" << wire::escape(f.algorithm)
       << "\",\n";
    os << "      \"seed\": " << f.seed << ",\n";
    os << "      \"delay_bound_ns\": " << f.delay_bound << ",\n";
    os << "      \"trace\": \"" << wire::escape(f.trace_path)
       << "\",\n";
    os << "      \"trace_events\": " << f.trace_events << ",\n";
    os << "      \"minimized_events\": " << f.minimized_events << ",\n";
    os << "      \"replay_reproduces\": "
       << (f.replay_reproduces ? "true" : "false") << ",\n";
    os << "      \"commutation\": \"" << choices_to_string(f.commutation)
       << "\",\n";
    os << "      \"neighborhood_tried\": " << f.neighborhood_tried << ",\n";
    os << "      \"neighborhood_violating\": " << f.neighborhood_violating
       << ",\n";
    os << "      \"violations\": ";
    check::write_violations_json(os, f.violations, 6);
    os << "\n    }";
  }
  if (!report.found.empty()) os << "\n  ";
  os << "]\n}\n";
  std::cout << "(json: " << path << ")\n";
}

int run_replay(const Options& o, const check::MonitorConfig& mc) {
  const scenario::RequestTrace trace = scenario::load_trace(o.replay_path);
  std::vector<check::Violation> violations;
  if (!trace.algorithm.empty() && o.algos.empty()) {
    // Self-contained v2 trace: everything comes from the header.
    std::cout << "replaying v2 trace: algorithm " << trace.algorithm
              << ", seed " << trace.seed << ", delay bound "
              << sim::to_ms(trace.latency_delay_bound) << "ms";
    if (!trace.mutant.empty()) std::cout << ", mutant " << trace.mutant;
    std::cout << "\n";
    violations = check::check_replay(trace, mc);
  } else {
    if (o.algos.size() != 1 || o.algos[0] == "all") {
      std::cerr << "--replay of a v1 trace needs exactly one --algo\n";
      return 2;
    }
    violations = check::check_replay(trace,
                                     algo::algorithm_from_name(o.algos[0]),
                                     mc, o.replay_seed, o.replay_delay_ns);
  }
  std::cout << "replayed " << trace.events.size() << " events: "
            << violations.size() << " violation(s)\n";
  for (const check::Violation& v : violations) {
    std::cout << "  [" << v.oracle << "] at " << sim::to_ms(v.at)
              << "ms: " << v.detail << "\n";
  }
  return violations.empty() ? 0 : 1;
}

// Live progress for long runs: polls the explorer's monitoring atomics every
// couple of wall-clock seconds. Returns null when --progress was not given —
// the deterministic report never depends on the heartbeat existing.
std::unique_ptr<obs::Heartbeat> make_heartbeat(
    const Options& o, const check::ExploreProgress& progress,
    const char* phase) {
  if (o.progress_path.empty()) return nullptr;
  obs::Heartbeat::Options hb;
  hb.phase = phase;
  hb.progress_path = o.progress_path;
  return std::make_unique<obs::Heartbeat>(hb, [&progress] {
    obs::ProgressSnapshot s;
    s.jobs_done = progress.runs_done.load(std::memory_order_relaxed);
    s.jobs_total = progress.runs_total.load(std::memory_order_relaxed);
    s.schedules_executed =
        progress.schedules_executed.load(std::memory_order_relaxed);
    s.orderings_pruned =
        progress.orderings_pruned.load(std::memory_order_relaxed);
    s.violations = progress.violations.load(std::memory_order_relaxed);
    return s;
  });
}

int run_exhaustive(const Options& o, const check::MonitorConfig& mc) {
  // One target per run: a silently dropped target would read as a clean
  // exploration of it.
  const char* conflict = nullptr;
  if (!o.mutexes.empty() && o.cm_ring) {
    conflict = "--mutex and --cm-ring are two targets";
  } else if (std::find(o.algos.begin(), o.algos.end(), "all") !=
             o.algos.end()) {
    conflict = "--algo all is not one algorithm (omit --algo for lass-loan)";
  } else if (o.algos.size() > 1) {
    conflict = "more than one --algo";
  } else if (o.scenarios.size() > 1) {
    conflict = "more than one --scenario";
  }
  if (conflict != nullptr) {
    std::cerr << "--exhaustive explores one target per run: " << conflict
              << "\n";
    return 2;
  }
  const check::DporConfig dpor = dpor_from(o);
  check::ExploreProgress progress;
  const auto heartbeat = make_heartbeat(o, progress, "explore-exhaustive");
  check::ExploreReport report;
  if (!o.mutexes.empty()) {
    check::MutexExploreConfig cfg;
    cfg.monitor = mc;
    cfg.base_seed = o.base_seed;
    cfg.trace_dir = o.trace_dir;
    if (o.sites > 0) cfg.num_sites = o.sites;
    if (o.requests > 0) cfg.requests_per_site = o.requests;
    if (o.mutexes.size() == 1 && o.mutexes[0] == "all") {
      cfg.protocols = check::all_mutex_protocols();
    } else {
      for (const std::string& name : o.mutexes) {
        cfg.protocols.push_back(check::mutex_protocol_from_name(name));
      }
    }
    cfg.progress = &progress;
    // Throws unless exactly one protocol: one schedule count per run.
    report = check::explore_mutex_exhaustive(cfg, dpor);
  } else if (o.cm_ring) {
    check::CmRingExploreConfig cfg;
    cfg.monitor = mc;
    cfg.base_seed = o.base_seed;
    cfg.trace_dir = o.trace_dir;
    if (o.sites > 0) cfg.num_sites = o.sites;
    if (o.requests > 0) cfg.requests_per_site = o.requests;
    cfg.progress = &progress;
    report = check::explore_cm_ring_exhaustive(cfg, dpor);
  } else {
    scenario::ScenarioSpec spec;
    if (o.scenarios.empty() ||
        (o.scenarios.size() == 1 && (o.scenarios[0] == "all" ||
                                     o.scenarios[0] == "tiny"))) {
      spec = check::tiny_exhaustive_spec(o.sites > 0 ? o.sites : 3,
                                         o.resources > 0 ? o.resources : 2);
    } else {
      spec = scenario::find_scenario(o.scenarios[0]);
      if (o.quick) {
        spec.warmup = sim::from_ms(200);
        spec.measure = sim::from_ms(800);
      }
    }
    if (o.quantum_ms >= 0) {
      spec.system.latency_quantum =
          static_cast<sim::SimDuration>(o.quantum_ms * 1e6);
    } else if (spec.system.latency_quantum == 0) {
      spec.system.latency_quantum = spec.system.network_latency;
    }
    const algo::Algorithm alg = o.algos.empty()
                                    ? algo::Algorithm::kLassWithLoan
                                    : algo::algorithm_from_name(o.algos[0]);
    report = check::explore_scenario_exhaustive(spec, alg, mc, dpor,
                                                o.trace_dir, &progress);
  }
  print_report(o, report);
  if (!o.json_path.empty()) write_report_json(o.json_path, o, report);
  return report.found.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (!o.mutant.empty()) {
      const check::Mutant m = check::mutant_from_name(o.mutant.c_str());
      if (m == check::Mutant::kNone) {
        std::cerr << "unknown mutant \"" << o.mutant << "\"\n";
        return 2;
      }
      check::set_active_mutant(m);
      std::cout << "mutant active: " << check::to_string(m) << "\n";
    }

    if (!o.trace_dir.empty()) {
      std::filesystem::create_directories(o.trace_dir);
    }

    const check::MonitorConfig mc = monitor_from(o);

    if (!o.replay_path.empty()) return run_replay(o, mc);
    if (o.exhaustive) return run_exhaustive(o, mc);

    check::ExploreReport total;
    check::ExploreProgress progress;
    const auto heartbeat = make_heartbeat(o, progress, "explore-fuzz");

    const bool scenario_mode =
        o.scenarios.empty() || o.scenarios[0] != "__none__";
    if (scenario_mode) {
      check::ExploreConfig cfg;
      cfg.monitor = mc;
      cfg.seeds_per_case = o.seeds;
      cfg.base_seed = o.base_seed;
      cfg.delay_bound =
          static_cast<sim::SimDuration>(o.delay_bound_ms * 1e6);
      cfg.stop_on_first = !o.keep_going;
      cfg.trace_dir = o.trace_dir;
      cfg.threads = o.threads;
      cfg.neighborhood_variants = o.neighborhood;
      cfg.progress = &progress;
      if (o.scenarios.empty() ||
          (o.scenarios.size() == 1 && o.scenarios[0] == "all")) {
        cfg.scenarios = scenario::registry();
      } else {
        for (const std::string& name : o.scenarios) {
          cfg.scenarios.push_back(scenario::find_scenario(name));
        }
      }
      if (o.quick) {
        for (scenario::ScenarioSpec& s : cfg.scenarios) {
          s.warmup = sim::from_ms(200);
          s.measure = sim::from_ms(800);
        }
      }
      if (o.algos.empty() ||
          (o.algos.size() == 1 && o.algos[0] == "all")) {
        cfg.algorithms = algo::all_algorithms();
      } else {
        for (const std::string& name : o.algos) {
          cfg.algorithms.push_back(algo::algorithm_from_name(name));
        }
      }
      total = check::explore(cfg);
    }

    if (!o.mutexes.empty() &&
        (total.found.empty() || o.keep_going)) {
      check::MutexExploreConfig mcfg;
      mcfg.monitor = mc;
      mcfg.seeds_per_case = o.seeds;
      mcfg.base_seed = o.base_seed;
      mcfg.delay_bound =
          static_cast<sim::SimDuration>(o.delay_bound_ms * 1e6);
      mcfg.stop_on_first = !o.keep_going;
      mcfg.threads = o.threads;
      mcfg.trace_dir = o.trace_dir;
      mcfg.progress = &progress;
      if (o.sites > 0) mcfg.num_sites = o.sites;
      if (o.requests > 0) mcfg.requests_per_site = o.requests;
      if (o.mutexes.size() == 1 && o.mutexes[0] == "all") {
        mcfg.protocols = check::all_mutex_protocols();
      } else {
        for (const std::string& name : o.mutexes) {
          mcfg.protocols.push_back(check::mutex_protocol_from_name(name));
        }
      }
      const check::ExploreReport mutex_report = check::explore_mutex(mcfg);
      total.runs += mutex_report.runs;
      total.violating_runs += mutex_report.violating_runs;
      for (const check::FoundViolation& f : mutex_report.found) {
        total.found.push_back(f);
      }
    }

    if (o.cm_ring && (total.found.empty() || o.keep_going)) {
      check::CmRingExploreConfig ccfg;
      ccfg.monitor = mc;
      ccfg.seeds_per_case = o.seeds;
      ccfg.base_seed = o.base_seed;
      ccfg.delay_bound =
          static_cast<sim::SimDuration>(o.delay_bound_ms * 1e6);
      ccfg.stop_on_first = !o.keep_going;
      ccfg.threads = o.threads;
      ccfg.trace_dir = o.trace_dir;
      ccfg.progress = &progress;
      if (o.sites > 0) ccfg.num_sites = o.sites;
      if (o.requests > 0) ccfg.requests_per_site = o.requests;
      const check::ExploreReport cm_report = check::explore_cm_ring(ccfg);
      total.runs += cm_report.runs;
      total.violating_runs += cm_report.violating_runs;
      for (const check::FoundViolation& f : cm_report.found) {
        total.found.push_back(f);
      }
    }

    print_report(o, total);
    if (!o.json_path.empty()) write_report_json(o.json_path, o, total);
    return total.found.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    // Exit 1 is reserved for "violation found": a config error (unknown
    // scenario name, bad trace dir) must not read as a detected bug.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
