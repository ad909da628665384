// Figures 1 and 4: Gantt illustrations. Runs the same small scenario
// (5 resources, 6 sites) under Bouabdallah-Laforest (global lock, static
// schedule), LASS without loan (no global lock) and LASS with loan (dynamic
// schedule) and renders the resource lanes; the busy fraction printed under
// each diagram is the paper's "coloured area" use-rate reading.
#include <iostream>

#include "common/bench_util.hpp"
#include "experiment/gantt.hpp"
#include "scenario/runner.hpp"

using namespace mra;
using namespace mra::bench;

namespace {

void run_one(algo::Algorithm alg, const BenchOptions& opts) {
  scenario::ScenarioSpec spec;
  spec.system.num_sites = 6;
  spec.system.num_resources = 5;
  spec.system.seed = opts.seed;
  spec.workload = workload::high_load(/*phi=*/3, /*num_resources=*/5);
  spec.workload.alpha_min = sim::from_ms(8.0);
  spec.workload.alpha_max = sim::from_ms(20.0);
  spec.warmup = sim::from_ms(100);
  spec.measure = sim::from_ms(300);

  obs::FlightRecorder recorder;
  const auto result = scenario::run_scenario(spec, alg, &recorder);
  const auto spans = experiment::gantt_spans(recorder, spec.warmup);

  experiment::GanttOptions gopt;
  gopt.columns = 100;
  gopt.start = spec.warmup;
  gopt.end = spec.warmup + spec.measure;

  std::cout << "\n--- " << result.algorithm << " ---\n";
  experiment::render_gantt(std::cout, spans, 5, gopt);
  std::cout << "busy fraction: "
            << experiment::Table::fmt(
                   experiment::gantt_busy_fraction(spans, 5, gopt) * 100.0, 1)
            << "%   (avg wait "
            << experiment::Table::fmt(result.waiting_mean_ms, 1) << " ms, "
            << result.requests_completed << " CS completed)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  std::cout << "Reproduces paper Figures 1/4: Gantt view of 5 resources.\n"
            << "Digits mark the site using the resource; '.' is idle time.\n"
            << "Expected ordering of busy fraction: BL < without loan <= "
               "with loan.\n";
  run_one(algo::Algorithm::kBouabdallahLaforest, opts);
  run_one(algo::Algorithm::kLassWithoutLoan, opts);
  run_one(algo::Algorithm::kLassWithLoan, opts);
  return 0;
}
