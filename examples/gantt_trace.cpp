// Exports a Gantt trace of a short run as ASCII art and CSV — the tooling
// behind the paper's Figures 1/4. Usage:
//   gantt_trace [algorithm] [phi]
// where algorithm is one of: incremental, bl, lass, lass-loan, central,
// maddi. An unknown algorithm prints the usage and exits 2.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/cli.hpp"
#include "experiment/gantt.hpp"
#include "experiment/table.hpp"
#include "scenario/runner.hpp"

using namespace mra;

namespace {

[[noreturn]] void usage_error() {
  std::cerr << "usage: gantt_trace [algorithm] [phi]\n"
               "  algorithm  incremental | bl | lass | lass-loan | central |"
               " maddi (default lass-loan)\n"
               "  phi        largest request size, >= 1 (default 3)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string alg_name = argc > 1 ? argv[1] : "lass-loan";
  algo::Algorithm algorithm{};
  try {
    algorithm = algo::algorithm_from_name(alg_name);
  } catch (const std::invalid_argument& e) {
    std::cerr << "gantt_trace: " << e.what() << "\n";
    usage_error();
  }
  const int phi = argc > 2 ? cli::parse_count<int>("phi", argv[2], 1) : 3;

  scenario::ScenarioSpec spec;
  spec.system.num_sites = 8;
  spec.system.num_resources = 10;
  spec.system.seed = 3;
  spec.workload = workload::high_load(phi, 10);
  spec.warmup = sim::from_ms(50);
  spec.measure = sim::from_ms(400);

  obs::FlightRecorder recorder;
  const auto result =
      scenario::run_scenario(spec, algorithm, &recorder);
  const auto spans = experiment::gantt_spans(recorder, spec.warmup);

  experiment::GanttOptions gopt;
  gopt.columns = 110;
  gopt.start = spec.warmup;
  gopt.end = spec.warmup + spec.measure;

  std::cout << "Gantt for " << result.algorithm << ", phi=" << phi
            << " (digits = site ids, window " << sim::to_ms(gopt.start) << ".."
            << sim::to_ms(gopt.end) << " ms)\n\n";
  experiment::render_gantt(std::cout, spans, 10, gopt);
  std::cout << "\nuse rate: " << experiment::Table::fmt(result.use_rate * 100, 1)
            << "%, mean wait: "
            << experiment::Table::fmt(result.waiting_mean_ms, 1) << " ms\n";

  const std::string csv = "gantt_trace.csv";
  std::ofstream out(csv);
  experiment::write_gantt_csv(out, spans);
  std::cout << "(records written to " << csv << ")\n";
  return 0;
}
