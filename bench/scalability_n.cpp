// Scalability in the number of sites, in two regimes.
//
// Paper scale (always): N ∈ {8..128} at the paper's M = 80, phi = 4, high
// load — how each algorithm's synchronization cost grows with system size
// (the regime where BL's serialized control token and Maddi's broadcasts
// hurt most). Tables + `scale_<algo>_n<N>` JSON rows.
//
// Memory scale (ROADMAP item 1): single LASS-with-loan runs at large N
// reporting wall-clock, peak RSS and bytes/site into the bench JSON
// (`bigscale_lass-loan_n<N>` rows) — the numbers DESIGN.md §13's flat
// per-site layout exists to bound. N ∈ {1024, 4096} by default (CI-sized);
// `--max-sites=K` appends steps up to K (10^5, 10^6). Per-site load is
// normalized so the *aggregate* offered load stays the paper's N = 32
// point (rho scales with N/32): without that, 10^6 sites each offering
// paper load would queue O(N) conflicting requests on 80 resources — a
// different experiment. These rows measure memory capacity and engine
// wall-clock at scale, not protocol waiting time.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bench_util.hpp"
#include "core/cli.hpp"
#include "metrics/memory.hpp"
#include "scenario/runner.hpp"

using namespace mra;
using namespace mra::bench;
using experiment::Table;

namespace {

/// One JSON row; a field that does not apply to a row is 0. Paper rows carry
/// use_rate/waiting, bigscale rows the event count and memory.
struct ScaleRow {
  std::string label;
  double use_rate = 0.0;
  double waiting_mean_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t requests_completed = 0;
  double wall_ms = 0.0;               ///< informational (machine-dependent)
  double events_per_sec = 0.0;        ///< bigscale rows only
  std::uint64_t rss_peak_kb = 0;      ///< bigscale rows only (VmHWM)
  double bytes_per_site = 0.0;        ///< bigscale rows only (RSS delta / N)
};

std::string algo_slug(algo::Algorithm alg) {
  switch (alg) {
    case algo::Algorithm::kBouabdallahLaforest: return "bl";
    case algo::Algorithm::kLassWithoutLoan: return "lass";
    case algo::Algorithm::kLassWithLoan: return "lass-loan";
    case algo::Algorithm::kCentralSharedMemory: return "central";
    default: return "other";
  }
}

/// Builds an N-site LASS-with-loan system, runs the aggregate-normalized
/// workload for `horizon`, and reports footprint + wall-clock. The RSS
/// delta brackets construction AND the run, so queue growth and arena
/// spill are charged to bytes/site too. `keep` pins measured systems so
/// the allocator cannot recycle their pages into the next build.
ScaleRow run_bigscale(
    int n, const BenchOptions& opts, sim::SimDuration horizon,
    std::vector<std::unique_ptr<algo::AllocationSystem>>& keep) {
  const std::uint64_t before_kb = metrics::read_vm_rss_kb();

  scenario::ScenarioSpec spec;
  spec.system.algorithm = algo::Algorithm::kLassWithLoan;
  spec.system.num_sites = n;
  spec.system.num_resources = 80;
  spec.system.seed = opts.seed;
  spec.system.network_latency = sim::from_ms(0.6);
  // Constant aggregate load: the per-site rho scales with N/32.
  spec.workload = workload::high_load(/*phi=*/4, /*M=*/80);
  spec.workload.rho *= static_cast<double>(n) / 32.0;
  auto system = algo::AllocationSystem::create(spec.system);

  const auto wall_start = std::chrono::steady_clock::now();
  system->start();

  scenario::ScenarioRunner runner(*system, spec,
                                  spec.system.seed ^ 0x9E3779B97F4A7C15ULL);
  runner.start();
  system->simulator().run(horizon);

  const auto wall_end = std::chrono::steady_clock::now();
  const std::uint64_t after_kb = metrics::read_vm_rss_kb();

  ScaleRow row;
  row.label = "bigscale_lass-loan_n" + std::to_string(n);
  row.events = system->simulator().events_processed();
  row.messages = system->network().total_messages();
  row.requests_completed = runner.collector().completed();
  row.wall_ms = std::chrono::duration<double, std::milli>(wall_end -
                                                          wall_start)
                    .count();
  if (row.wall_ms > 0) {
    row.events_per_sec =
        static_cast<double>(row.events) / (row.wall_ms / 1e3);
  }
  row.rss_peak_kb = metrics::read_vm_peak_kb();
  if (after_kb > before_kb) {
    row.bytes_per_site =
        static_cast<double>(after_kb - before_kb) * 1024.0 / n;
  }
  keep.push_back(std::move(system));
  return row;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void write_json(const std::string& path, const std::vector<ScaleRow>& rows) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << "{\"tool\":\"scalability_n\",\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    if (i != 0) f << ",";
    f << "\n  {\"label\":\"" << r.label << "\""
      << ",\"use_rate\":" << num(r.use_rate)
      << ",\"waiting_mean_ms\":" << num(r.waiting_mean_ms)
      << ",\"events\":" << r.events << ",\"messages\":" << r.messages
      << ",\"requests_completed\":" << r.requests_completed
      << ",\"wall_ms\":" << num(r.wall_ms)
      << ",\"events_per_sec\":" << num(r.events_per_sec)
      << ",\"rss_peak_kb\":" << r.rss_peak_kb
      << ",\"bytes_per_site\":" << num(r.bytes_per_site) << "}";
  }
  f << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --max-sites is this bench's own flag; strip it before the shared parse
  // (parse_options rejects unknown flags).
  int max_sites = 0;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--max-sites", v)) {
      max_sites = cli::parse_count<int>("--max-sites", v);
    } else {
      args.push_back(argv[i]);
    }
  }
  const BenchOptions opts =
      parse_options(static_cast<int>(args.size()), args.data(),
                    /*supports_json=*/true);
  std::cout << "Scalability: N sweep (M=80, phi=4, high load).\n";

  const std::vector<int> ns = {8, 16, 32, 64, 128};
  const std::vector<algo::Algorithm> series = {
      algo::Algorithm::kBouabdallahLaforest,
      algo::Algorithm::kLassWithoutLoan,
      algo::Algorithm::kLassWithLoan,
      algo::Algorithm::kCentralSharedMemory,
  };

  std::vector<scenario::ScenarioSpec> specs;
  for (int n : ns) {
    for (auto alg : series) {
      auto spec = paper_config(alg, /*phi=*/4, /*rho=*/0.5, opts);
      spec.system.num_sites = n;
      specs.push_back(spec);
    }
  }
  const auto results = run_sweep_with_progress(specs, opts, "scalability_n");

  std::vector<ScaleRow> rows;
  Table use({"N", "BL use (%)", "no-loan use (%)", "loan use (%)",
             "shm use (%)"});
  Table wait({"N", "BL wait (ms)", "no-loan wait (ms)", "loan wait (ms)",
              "shm wait (ms)", "BL/LASS"});
  std::size_t idx = 0;
  for (int n : ns) {
    const auto& bl = results[idx];
    const auto& noloan = results[idx + 1];
    const auto& loan = results[idx + 2];
    const auto& shm = results[idx + 3];
    for (std::size_t s = 0; s < series.size(); ++s) {
      const auto& res = results[idx + s];
      ScaleRow row;
      row.label =
          "scale_" + algo_slug(series[s]) + "_n" + std::to_string(n);
      row.use_rate = res.use_rate;
      row.waiting_mean_ms = res.waiting_mean_ms;
      row.messages = res.messages;
      row.requests_completed = res.requests_completed;
      rows.push_back(row);
    }
    idx += series.size();
    use.add_row({std::to_string(n), Table::fmt(bl.use_rate * 100, 1),
                 Table::fmt(noloan.use_rate * 100, 1),
                 Table::fmt(loan.use_rate * 100, 1),
                 Table::fmt(shm.use_rate * 100, 1)});
    wait.add_row({std::to_string(n), Table::fmt(bl.waiting_mean_ms, 1),
                  Table::fmt(noloan.waiting_mean_ms, 1),
                  Table::fmt(loan.waiting_mean_ms, 1),
                  Table::fmt(shm.waiting_mean_ms, 1),
                  Table::fmt(loan.waiting_mean_ms > 0
                                 ? bl.waiting_mean_ms / loan.waiting_mean_ms
                                 : 0.0,
                             2) +
                      "x"});
  }
  std::cout << "\n--- resource use rate ---\n";
  emit(use, opts, "scalability_n_use.csv");
  std::cout << "\n--- average waiting time ---\n";
  emit(wait, opts, "scalability_n_wait.csv");
  std::cout << "\nExpectation: the BL/LASS gap widens with N (every extra "
               "site queues behind the single control token).\n";

  // ---- memory-scale rows (ROADMAP item 1) --------------------------------
  std::vector<int> big_ns = {1024, 4096};
  for (int n : {100'000, 1'000'000}) {
    if (max_sites >= n) big_ns.push_back(n);
  }
  const sim::SimDuration horizon =
      opts.quick ? sim::from_ms(200) : sim::from_ms(1000);

  std::cout << "\n--- memory scale (lass-loan, aggregate-normalized load) "
               "---\n";
  std::printf("%-26s %12s %12s %10s %12s %14s\n", "row", "events",
              "completed", "wall_ms", "rss_peak_kb", "bytes/site");
  std::vector<std::unique_ptr<algo::AllocationSystem>> keep;
  for (int n : big_ns) {
    ScaleRow row = run_bigscale(n, opts, horizon, keep);
    std::printf("%-26s %12llu %12llu %10.1f %12llu %14.0f\n",
                row.label.c_str(),
                static_cast<unsigned long long>(row.events),
                static_cast<unsigned long long>(row.requests_completed),
                row.wall_ms, static_cast<unsigned long long>(row.rss_peak_kb),
                row.bytes_per_site);
    rows.push_back(row);
  }

  if (!opts.json_path.empty()) {
    write_json(opts.json_path, rows);
    std::cout << "(json: " << opts.json_path << ")\n";
  }
  return 0;
}
