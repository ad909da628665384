// mra_bench — the benchmark: one command for the end-to-end and per-layer
// numbers on six named workloads (README.md next to this file documents the
// workloads, metrics, bounds, noise bands and the claim rule).
//
//   mra_bench [--workload=NAME|all] [--seed=S] [--reps=K] [--seconds=T]
//             [--trace[=0|1]] [--smoke] [--json=PATH]
//
// Every (workload, rep) runs in a fresh child process of this binary, one at
// a time, in rep-major round-robin order: a burst of machine noise hits one
// rep of several workloads instead of every rep of one, and each rep gets its
// own peak RSS and its own pool state. The parent checks each rep's output
// digest (reps must agree; seed 1 must match mra_bench/pins.hpp), prints
// every end-to-end metric with its unit, median and min–max, and ends its
// standard output with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace, one more rep per workload runs traced and prints where its
// wall time went, layer by layer (LayerClock, the replay passes, and spans
// around the library calls), and the JSON line carries the per-layer metrics.
//
// Workloads reach the library only through run_scenario (observer + on_wired
// overload), check::explore / explore_scenario_exhaustive, the fabric
// coordinator and worker loops, and the public layer classes. The seed
// reaches the library only through the generated specs.
#include "mra_bench/alloc_count.hpp"  // defines the global operator new

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/factory.hpp"
#include "check/explore.hpp"
#include "check/fanout.hpp"
#include "check/monitor.hpp"
#include "core/cli.hpp"
#include "experiment/json.hpp"
#include "experiment/replicate.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/grid.hpp"
#include "fabric/merge.hpp"
#include "fabric/result.hpp"
#include "fabric/spool.hpp"
#include "fabric/worker.hpp"
#include "metrics/memory.hpp"
#include "mra_bench/layer_clock.hpp"
#include "mra_bench/pins.hpp"
#include "mra_bench/replay.hpp"
#include "mra_bench/util.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace mra_bench {
namespace {

using namespace mra;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Metric vocabulary (mirrors BENCHMARK.json)
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  /// The reported value over a run's measured reps: the minimum for wall
  /// time, because host noise only ever adds time and arrives in bursts that
  /// shift a median for seconds at a time (README.md, "Why the fastest rep
  /// for wall_s"); the median otherwise.
  bool fastest = false;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", true},
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
};

/// Every per-layer metric is measured on every workload: the run_scenario
/// workloads measure their own calls, explore-dpor and fabric-spool a job
/// pass over their scenario jobs (see Workload::body_runs_jobs).
constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"sim.queue_slots", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.ns_per_msg", "ns"},
    {"sim.instant_ns", "ns"},
    {"algo.deliver_ns", "ns"},
    {"algo.request_ns", "ns"},
    {"algo.release_ns", "ns"},
    {"scenario.grant_ns", "ns"},
    {"algo.handler_share_pct", "%"},
    {"alloc.per_request", "count"},
    {"alloc.bytes_per_request", "bytes"},
    {"scenario.setup_ms", "ms"},
    {"scenario.alloc_bytes_per_site", "bytes"},
    {"metrics.collector_ns_per_request", "ns"},
    {"check.monitor_ns_per_event", "ns"},
    {"obs.recorder_ns_per_event", "ns"},
    {"obs.export_ns_per_span", "ns"},
    {"experiment.job_ms.p50", "ms"},
    {"experiment.job_ms.max", "ms"},
    {"fabric.serialize_us_per_job", "us"},
    {"fabric.parse_us_per_job", "us"},
    {"fabric.payload_bytes", "bytes"},
    {"layer.other_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"proc.cpu_util_pct", "%"},
};

/// The attributed rows of a run_scenario table must cover this much of the
/// traced wall time (the `other` residual may hold the rest).
constexpr double kLayerSumTolerancePct = 5.0;

// ---------------------------------------------------------------------------
// One rep: what a workload body measures
// ---------------------------------------------------------------------------

struct Job {
  std::string label;
  scenario::ScenarioSpec spec;
  algo::Algorithm algorithm = algo::Algorithm::kLassWithLoan;
};

/// A workload-specific traced number, printed but not part of the JSON.
struct ExtraRow {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Rep {
 public:
  Rep(bool smoke, std::uint64_t seed, bool traced, std::int64_t spawned_ns)
      : smoke(smoke), seed(seed), traced(traced), spawned_ns_(spawned_ns) {}

  const bool smoke;
  const std::uint64_t seed;
  const bool traced;

  Fnv1a digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failure;  ///< first failure message
  std::uint64_t requests = 0;  ///< CS grants completed in measured windows

  // Traced-only instruments.
  std::map<std::string, LayerClock> clocks;  ///< per algorithm cli name
  std::vector<double> job_ms;
  std::vector<experiment::ExperimentResult> results;
  alloc::Counts job_alloc;
  alloc::Counts setup_alloc;
  std::uint64_t setup_sites = 0;
  std::vector<LayerClock::Row> spans;  ///< around library calls the clock cannot see
  std::vector<ExtraRow> extras;
  std::string fabric_merged;  ///< fabric-spool: the merged bytes, for the job pass

  void fail(const std::string& what) {
    ++failed;
    if (failure.empty()) failure = what;
  }

  /// Inputs are built: the timed workload starts now.
  void mark_ready() {
    ready_ns_ = now_ns();
    ready_cpu_ = cpu_s();
    startup_s_ = spawned_ns_ > 0 ? static_cast<double>(ready_ns_ - spawned_ns_) * 1e-9 : 0.0;
  }

  /// The timed workload is over; snapshot the end-to-end numbers.
  void mark_done() {
    wall_s = static_cast<double>(now_ns() - ready_ns_) * 1e-9;
    cpu_s_used = cpu_s() - ready_cpu_;
    setup_s = startup_s_ + wired_s_;
    rss_peak_mb = static_cast<double>(metrics::read_vm_peak_kb()) / 1024.0;
  }

  double wall_s = 0.0;
  double cpu_s_used = 0.0;
  double setup_s = 0.0;
  double rss_peak_mb = 0.0;

  /// Times `fn` as a named span row of the traced table.
  template <class Fn>
  void span(const char* name, Fn fn) {
    const std::int64_t t0 = now_ns();
    fn();
    if (!traced) return;
    auto it = std::find_if(spans.begin(), spans.end(),
                           [&](const LayerClock::Row& s) { return s.name == name; });
    if (it == spans.end()) it = spans.insert(spans.end(), LayerClock::Row{name});
    it->ns += now_ns() - t0;
    ++it->count;
  }

  [[nodiscard]] double span_s(const char* name) const {
    for (const LayerClock::Row& s : spans) {
      if (s.name == name) return static_cast<double>(s.ns) * 1e-9;
    }
    return 0.0;
  }

  /// One run_scenario call: counted as an attempted operation, its set-up
  /// span (call -> on_wired) charged to setup_s, bracketed by the algorithm's
  /// LayerClock in traced reps. Several observers share the run's one
  /// observer slot through an ObserverMux; the clock goes in first, so the
  /// other observers' work lands in the context of the hook they handle.
  std::optional<experiment::ExperimentResult> run(
      const Job& job, const std::vector<check::Observer*>& observers = {},
      const std::function<void(algo::AllocationSystem&)>& on_wired = {}) {
    ++attempted;
    LayerClock* clock = traced ? &clocks[algo::cli_name(job.algorithm)] : nullptr;
    check::ObserverMux mux;
    if (clock != nullptr) mux.add(*clock);
    for (check::Observer* o : observers) mux.add(*o);
    check::Observer* observer = clock;
    if (!observers.empty()) observer = &mux;
    const alloc::Counts a0 = alloc::now();
    alloc::Counts a1 = a0;
    const std::int64_t t0 = now_ns();
    std::int64_t wired_at = t0;
    try {
      if (clock != nullptr) clock->begin_job();
      experiment::ExperimentResult r = scenario::run_scenario(
          job.spec, job.algorithm, observer, [&](algo::AllocationSystem& sys) {
            wired_at = now_ns();
            a1 = alloc::now();
            if (clock != nullptr) clock->wired(sys.simulator());
            if (on_wired) on_wired(sys);
          });
      if (clock != nullptr) clock->end_job();
      const std::int64_t t1 = now_ns();
      wired_s_ += static_cast<double>(wired_at - t0) * 1e-9;
      requests += r.requests_completed;
      if (traced) {
        job_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        const alloc::Counts a2 = alloc::now();
        setup_alloc.count += (a1 - a0).count;
        setup_alloc.bytes += (a1 - a0).bytes;
        setup_sites += static_cast<std::uint64_t>(job.spec.system.num_sites);
        job_alloc.count += (a2 - a0).count;
        job_alloc.bytes += (a2 - a0).bytes;
        results.push_back(r);
      }
      return r;
    } catch (const std::exception& e) {
      if (clock != nullptr) clock->end_job();
      fail(job.label + "/" + algo::cli_name(job.algorithm) + ": " + e.what());
      return std::nullopt;
    }
  }

 private:
  std::int64_t spawned_ns_ = 0;
  std::int64_t ready_ns_ = 0;
  double ready_cpu_ = 0.0;
  double startup_s_ = 0.0;
  double wired_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

sim::SimDuration ms(double v) { return sim::from_ms(v); }

scenario::ScenarioSpec registry_spec(const char* name, const Rep& rep) {
  scenario::ScenarioSpec s = scenario::find_scenario(name);
  s.system.seed = rep.seed;
  return s;
}

/// Hashes the standard results JSON of the jobs that completed.
void digest_results(Rep& rep, const std::vector<experiment::LabeledResult>& results) {
  std::ostringstream os;
  experiment::write_results_json(os, "mra_bench", results);
  rep.digest.add(os.str());
}

void run_jobs_digesting_results(Rep& rep, const std::vector<Job>& jobs) {
  rep.mark_ready();
  std::vector<experiment::LabeledResult> results;
  for (const Job& job : jobs) {
    if (auto r = rep.run(job)) results.push_back({job.label, std::move(*r)});
  }
  digest_results(rep, results);
}

// fig5-grid ------------------------------------------------------------------

std::vector<Job> fig5_jobs(const Rep& rep) {
  static constexpr int kPhis[] = {1, 2, 4, 8, 12, 16, 20, 28, 40, 56, 80};
  static constexpr algo::Algorithm kSeries[] = {
      algo::Algorithm::kIncremental, algo::Algorithm::kBouabdallahLaforest,
      algo::Algorithm::kLassWithoutLoan, algo::Algorithm::kLassWithLoan,
      algo::Algorithm::kCentralSharedMemory};
  std::vector<Job> jobs;
  for (const auto& [label, rho] :
       {std::pair<const char*, double>{"medium", 5.0}, {"high", 0.5}}) {
    for (const int phi : kPhis) {
      for (const algo::Algorithm alg : kSeries) {
        // paper-phi4 carries the §5.1 system: N=32, M=80, γ=0.6 ms, uniform
        // popularity, closed-loop exponential think times.
        scenario::ScenarioSpec s = registry_spec("paper-phi4", rep);
        s.workload = workload::medium_load(phi, 80);
        s.workload.rho = rho;
        s.warmup = ms(rep.smoke ? 25 : 200);
        s.measure = ms(rep.smoke ? 250 : 1200);
        jobs.push_back({label, s, alg});
      }
    }
  }
  return jobs;
}

void fig5_grid(Rep& rep) { run_jobs_digesting_results(rep, fig5_jobs(rep)); }

// substrate-mix ----------------------------------------------------------------

std::vector<Job> substrate_jobs(const Rep& rep) {
  std::vector<Job> jobs;
  for (const char* name : {"paper-phi4", "high-load-phi4", "open-loop", "zipf-hot"}) {
    for (const algo::Algorithm alg :
         {algo::Algorithm::kIncremental, algo::Algorithm::kBouabdallahLaforest}) {
      scenario::ScenarioSpec s = registry_spec(name, rep);
      s.warmup = ms(2000);
      s.measure = ms(rep.smoke ? 30'000 : 150'000);
      jobs.push_back({name, s, alg});
    }
  }
  return jobs;
}

void substrate_mix(Rep& rep) { run_jobs_digesting_results(rep, substrate_jobs(rep)); }

// bigscale-lass ----------------------------------------------------------------

std::vector<Job> bigscale_jobs(const Rep& rep) {
  // Aggregate-normalized load (rho scales with N/32, as scalability_n does):
  // N sites offer the paper's N=32 load, so this measures per-site state,
  // sparse FIFO watermarks (N > 2048) and a deep event queue, not queueing.
  const int n = rep.smoke ? 5'000 : 50'000;
  scenario::ScenarioSpec s = registry_spec("high-load-phi4", rep);
  s.system.num_sites = n;
  s.workload.rho *= static_cast<double>(n) / 32.0;
  s.warmup = 0;
  s.measure = ms(3000);
  return {{"bigscale", s, algo::Algorithm::kLassWithLoan}};
}

void bigscale_lass(Rep& rep) {
  const std::vector<Job> jobs = bigscale_jobs(rep);
  rep.mark_ready();
  std::vector<experiment::LabeledResult> results;
  const std::uint64_t rss0 = metrics::read_vm_rss_kb();
  std::uint64_t rss1 = 0;
  if (auto r = rep.run(jobs[0], {}, [&](algo::AllocationSystem&) {
        rss1 = metrics::read_vm_rss_kb();
      })) {
    results.push_back({jobs[0].label, std::move(*r)});
  }
  digest_results(rep, results);
  if (rep.traced && rss1 > rss0) {
    rep.extras.push_back(
        {"scenario.bytes_per_site",
         static_cast<double>(rss1 - rss0) * 1024.0 / jobs[0].spec.system.num_sites,
         "bytes"});
  }
}

// observed-lass ----------------------------------------------------------------

std::vector<Job> observed_jobs(const Rep& rep) {
  std::vector<Job> jobs;
  for (const char* name : {"paper-phi4", "zipf-hot", "high-load-phi4"}) {
    scenario::ScenarioSpec s = registry_spec(name, rep);
    s.warmup = ms(2000);
    s.measure = ms(rep.smoke ? 3000 : 15'000);
    jobs.push_back({name, s, algo::Algorithm::kLassWithLoan});
  }
  return jobs;
}

void observed_lass(Rep& rep) {
  const std::vector<Job> jobs = observed_jobs(rep);
  rep.mark_ready();
  std::vector<experiment::LabeledResult> results;
  for (const Job& job : jobs) {
    check::MonitorConfig mc;  // every oracle on
    mc.num_sites = job.spec.system.num_sites;
    mc.num_resources = job.spec.system.num_resources;
    check::Monitor monitor(mc);
    obs::FlightRecorder recorder;
    auto r = rep.run(job, {&monitor, &recorder}, [&](algo::AllocationSystem& sys) {
      recorder.enable_gauges(sys.simulator(), sys.network(), ms(10));
    });
    if (!r) continue;
    rep.span("check.finalize", [&] {
      monitor.finalize(recorder.last_seen(), /*quiescent=*/false);
    });
    if (!monitor.ok()) {
      rep.fail(job.label + ": " + std::to_string(monitor.violations().size()) +
               " oracle violation(s), first: " + monitor.violations().front().oracle);
    }
    HashStream csv;
    HashStream chrome;
    rep.span("obs.export", [&] {
      obs::ChromeTraceOptions opts;
      opts.violations = &monitor.violations();
      obs::write_chrome_trace(recorder, chrome, opts);
      obs::write_spans_csv(recorder, csv);
    });
    rep.digest.add_u64(csv.digest());
    rep.digest.add_u64(chrome.digest());
    rep.digest.add_u64(monitor.violations().size());
    results.push_back({job.label, std::move(*r)});
  }
  digest_results(rep, results);
}

/// Traced extra: the same jobs with no observer, for obs.overhead_pct.
void observed_overhead(Rep& rep) {
  double plain_s = 0.0;
  for (const Job& job : observed_jobs(rep)) {
    const double t0 = now_s();
    (void)scenario::run_scenario(job.spec, job.algorithm);
    plain_s += now_s() - t0;
  }
  double observed_s = 0.0;
  for (const double v : rep.job_ms) observed_s += v * 1e-3;
  rep.extras.push_back({"obs.overhead_pct", 100.0 * (observed_s - plain_s) / plain_s, "%"});
}

// explore-dpor -----------------------------------------------------------------

std::vector<scenario::ScenarioSpec> fuzz_specs(const Rep& rep) {
  std::vector<scenario::ScenarioSpec> specs;
  for (const char* name : {"paper-phi4", "zipf-hot"}) {
    scenario::ScenarioSpec s = registry_spec(name, rep);
    s.warmup = ms(200);  // mra_explore --quick windows
    s.measure = ms(800);
    specs.push_back(s);
  }
  return specs;
}

constexpr algo::Algorithm kFuzzAlgorithms[] = {algo::Algorithm::kLassWithLoan,
                                              algo::Algorithm::kBouabdallahLaforest,
                                              algo::Algorithm::kIncremental};

int fuzz_seeds(const Rep& rep) { return rep.smoke ? 1 : 10; }

/// The fuzz cases re-run unchecked and unperturbed: the job pass that gives
/// explore-dpor its layer split.
std::vector<Job> explore_jobs(const Rep& rep) {
  std::vector<Job> jobs;
  for (const scenario::ScenarioSpec& spec : fuzz_specs(rep)) {
    for (const algo::Algorithm alg : kFuzzAlgorithms) {
      for (int i = 0; i < fuzz_seeds(rep); ++i) {
        Job job{spec.name, spec, alg};
        job.spec.system.seed = rep.seed + static_cast<std::uint64_t>(i);
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

void explore_dpor(Rep& rep) {
  check::ExploreConfig cfg;
  cfg.scenarios = fuzz_specs(rep);
  cfg.algorithms.assign(std::begin(kFuzzAlgorithms), std::end(kFuzzAlgorithms));
  cfg.seeds_per_case = fuzz_seeds(rep);
  cfg.base_seed = rep.seed;
  cfg.stop_on_first = false;
  cfg.minimize_budget = 0;
  cfg.threads = 1;
  // DPOR spends a fixed schedule budget over consecutive tiny-spec seeds,
  // at most kPerSpec schedules each: some seeds exhaust their reduced
  // schedule space after ~1,000 schedules, others run into any cap, and the
  // cost per schedule differs by seed, so a fixed total spread over many
  // specs keeps the work independent of the bench seed.
  constexpr std::uint64_t kPerSpec = 250;
  const std::uint64_t budget = rep.smoke ? 1'000 : 5'000;
  rep.mark_ready();

  check::ExploreReport fuzz;
  rep.span("check.fuzz", [&] { fuzz = check::explore(cfg); });
  rep.attempted += fuzz.runs;
  for (std::uint64_t i = 0; i < fuzz.violating_runs; ++i) {
    rep.fail("explore: fuzz run violated an oracle (" +
             (fuzz.found.empty() ? std::string("?") : fuzz.found.front().scenario) + ")");
  }

  std::uint64_t schedules = 0;
  std::uint64_t pruned = 0;
  std::uint64_t choice_points = 0;
  std::uint64_t specs = 0;
  rep.span("check.dpor", [&] {
    for (std::uint64_t s = rep.seed; schedules < budget; ++s) {
      scenario::ScenarioSpec spec = check::tiny_exhaustive_spec(4, 3);
      spec.system.seed = s;
      check::DporConfig dpor;
      dpor.max_schedules = std::min(kPerSpec, budget - schedules);
      const check::ExploreReport r = check::explore_scenario_exhaustive(
          spec, algo::Algorithm::kBouabdallahLaforest, {}, dpor);
      schedules += r.schedules_executed;
      pruned += r.orderings_pruned;
      choice_points += r.choice_points;
      ++specs;
      if (r.violating_runs != 0) rep.fail("dpor: tiny spec seed " + std::to_string(s) + " violated");
      if (r.schedules_executed == 0) break;
    }
  });
  rep.attempted += schedules;
  for (const std::uint64_t v : {fuzz.runs, fuzz.violating_runs, schedules, pruned,
                                choice_points, specs}) {
    rep.digest.add_u64(v);
  }
  if (rep.traced) {
    const double fuzz_s = rep.span_s("check.fuzz");
    const double dpor_s = rep.span_s("check.dpor");
    rep.extras.push_back({"check.fuzz.runs", static_cast<double>(fuzz.runs), "count"});
    rep.extras.push_back({"check.fuzz.ms_per_run", 1e3 * fuzz_s / static_cast<double>(fuzz.runs), "ms"});
    rep.extras.push_back({"check.dpor.schedules", static_cast<double>(schedules), "count"});
    rep.extras.push_back({"check.dpor.pruned", static_cast<double>(pruned), "count"});
    rep.extras.push_back({"check.dpor.us_per_schedule", 1e6 * dpor_s / static_cast<double>(schedules), "us"});
  }
}

// fabric-spool -----------------------------------------------------------------

fabric::GridSpec fabric_grid(const Rep& rep) {
  fabric::GridSpec grid;
  grid.kind = fabric::GridKind::kReplicated;
  grid.scenarios = {"paper-phi80", "high-load-phi4"};
  grid.algorithms = {"lass", "lass-loan"};
  grid.replications = rep.smoke ? 1 : 12;
  grid.quick = true;
  grid.seed_set = true;
  grid.seed = rep.seed;
  return grid;
}

/// 3 workers on 4 cores, leaving one for the parent and the rest of the
/// machine; nproc-1 on fewer.
int fabric_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp(hw - 1, 1u, 3u));
}

/// The grid's jobs exactly as GridSpec::run_job builds them (replication
/// seeds included), so the job pass's payloads must merge to the same bytes.
std::vector<Job> fabric_jobs(const Rep& rep) {
  const fabric::GridSpec grid = fabric_grid(rep);
  const std::vector<scenario::ScenarioSpec> specs = grid.resolve_scenarios();
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < grid.job_count(); ++i) {
    const std::size_t pair = i / grid.replications;
    Job job{grid.job_label(i), specs[pair / grid.algorithms.size()],
            algo::algorithm_from_name(grid.algorithms[pair % grid.algorithms.size()])};
    job.spec.system.seed =
        experiment::replication_seed(job.spec.system.seed, i % grid.replications);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// A spool directory no other process uses: next to this binary (inside the
/// build tree), named after the pid, removed when the run ends.
class UniqueSpool {
 public:
  UniqueSpool() {
    static int counter = 0;
    path_ = (fs::read_symlink("/proc/self/exe").parent_path() /
             ("spool-" + std::to_string(::getpid()) + "-" + std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~UniqueSpool() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  UniqueSpool(const UniqueSpool&) = delete;
  UniqueSpool& operator=(const UniqueSpool&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void fabric_spool(Rep& rep) {
  const fabric::GridSpec grid = fabric_grid(rep);
  const int workers = fabric_workers();
  const UniqueSpool spool;
  const fabric::SpoolPaths paths{spool.path()};
  // fabric::read_file() reports "open failed, then exists()" as an I/O
  // error, so a reader polling a path at the instant another thread renames
  // it into place throws: about one run in twenty with the coordinator and
  // three workers live on one spool. Until src/fabric/spool.cpp treats that
  // as absent, no reader here polls an absent path: the manifest and one
  // stale (unparsable, hence claimable) claim per lease exist before the
  // workers start, and the coordinator runs once they are done,
  // checkpointing and merging the complete spool.
  fabric::Manifest manifest;
  manifest.grid = grid;
  manifest.chunk = 1;
  manifest.jobs = grid.job_count();
  fabric::CoordinatorOptions copts;
  copts.spool = spool.path();
  copts.chunk = manifest.chunk;
  copts.poll_interval_sec = 0.005;
  copts.out_path = spool.path() + "/merged.json";
  rep.mark_ready();

  // Publishing is the coordinator's job, so it is timed with the sweep.
  rep.span("fabric.publish", [&] {
    fabric::ensure_spool_dirs(paths);
    fabric::write_file_atomic(paths.manifest(), manifest.serialize(), "bench");
    for (std::uint64_t id = 0; id < manifest.jobs; ++id) {
      fabric::write_file_atomic(paths.claim(id), "", "bench");
    }
  });

  std::vector<int> worker_codes(static_cast<std::size_t>(workers), -1);
  std::vector<std::string> errors(static_cast<std::size_t>(workers));
  rep.span("fabric.workers", [&] {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        fabric::WorkerOptions wopts;
        wopts.spool = spool.path();
        wopts.name = "bench-w" + std::to_string(w);
        wopts.poll_interval_sec = copts.poll_interval_sec;
        try {
          worker_codes[static_cast<std::size_t>(w)] = fabric::run_worker(wopts);
        } catch (const std::exception& e) {
          errors[static_cast<std::size_t>(w)] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  });
  int coordinator_code = -1;
  rep.span("fabric.coordinator", [&] {
    try {
      coordinator_code = fabric::run_coordinator(grid, copts);
    } catch (const std::exception& e) {
      errors.push_back(e.what());
    }
  });

  rep.attempted += grid.job_count();
  for (const std::string& e : errors) {
    if (!e.empty()) rep.fail("fabric: " + e);
  }
  if (coordinator_code != 0) rep.fail("fabric: coordinator exited " + std::to_string(coordinator_code));
  for (const int code : worker_codes) {
    if (code != 0) rep.fail("fabric: a worker exited " + std::to_string(code));
  }
  std::ifstream in(copts.out_path, std::ios::binary);
  std::ostringstream merged;
  merged << in.rdbuf();
  rep.digest.add(merged.str());
  if (rep.traced) {
    rep.fabric_merged = merged.str();
    rep.extras.push_back({"fabric.workers", static_cast<double>(workers), "count"});
  }
}

/// Traced extra: sequential timed GridSpec::run_job calls. Their payloads
/// must equal the job pass's serialized results (same jobs) and merge to the
/// bytes the fabric wrote (the fabric's byte-identity invariant).
void fabric_merge_check(Rep& rep) {
  const fabric::GridSpec grid = fabric_grid(rep);
  std::vector<std::string> payloads;
  std::vector<double> job_ms;
  for (std::size_t i = 0; i < grid.job_count(); ++i) {
    const double t0 = now_s();
    payloads.push_back(grid.run_job(i));
    job_ms.push_back((now_s() - t0) * 1e3);
    if (i >= rep.results.size() || fabric::serialize_result(rep.results[i]) != payloads.back()) {
      rep.fail("fabric: job " + std::to_string(i) + " payload differs from the job pass");
    }
  }
  std::ostringstream os;
  const double t0 = now_s();
  const auto error = fabric::write_merged_output(os, grid, payloads);
  const double merge_s = now_s() - t0;
  if (error || os.str() != rep.fabric_merged) {
    rep.fail("fabric: merged output differs from the sequential run_job payloads");
  }
  double jobs_s = 0.0;
  for (const double v : job_ms) jobs_s += v * 1e-3;
  const double workers_s = rep.span_s("fabric.workers");
  const Spread js = spread(job_ms);
  rep.extras.push_back({"fabric.run_job_ms.p50", js.median, "ms"});
  rep.extras.push_back({"fabric.run_job_ms.max", js.max, "ms"});
  rep.extras.push_back({"fabric.merge_ms", merge_s * 1e3, "ms"});
  rep.extras.push_back({"fabric.parallel_efficiency", jobs_s / (workers_s * fabric_workers()), "ratio"});
}

// Registry ---------------------------------------------------------------------

struct Workload {
  const char* name;
  const char* why;
  int default_reps;
  void (*body)(Rep&);
  /// The scenario jobs behind the workload: the traced run's probes replay
  /// them, and when !body_runs_jobs a job pass runs them under LayerClock.
  std::vector<Job> (*jobs)(const Rep&);
  bool body_runs_jobs;
  void (*traced_extra)(Rep&);  ///< optional, after the job pass
};

const Workload kWorkloads[] = {
    {"fig5-grid",
     "the paper's Fig. 5 grid; LASS handlers dominate, so a protocol change "
     "shows here and an engine change barely does",
     3, fig5_grid, fig5_jobs, true, nullptr},
    {"substrate-mix",
     "Incremental and BL at ~0.2 us per message: the event queue and network "
     "delivery dominate; a LASS-handler change must leave it flat",
     3, substrate_mix, substrate_jobs, true, nullptr},
    {"bigscale-lass",
     "one LASS-with-loan system at N=50k: the only workload where setup_s "
     "and rss_peak_mb are material",
     3, bigscale_lass, bigscale_jobs, true, nullptr},
    {"observed-lass",
     "LASS with a Monitor and a FlightRecorder attached and exported: the "
     "only workload where check/ and obs/ do work",
     3, observed_lass, observed_jobs, true, observed_overhead},
    {"explore-dpor",
     "the model checker: a fuzz sweep plus a fixed DPOR schedule budget, "
     "through the simulator's commutation mode",
     3, explore_dpor, explore_jobs, false, nullptr},
    {"fabric-spool",
     "48 replicated jobs through 3 fabric workers and the coordinator over a "
     "file spool: serialization, spool, merge and sweep-tail imbalance",
     5, fabric_spool, fabric_jobs, false, fabric_merge_check},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The traced rep: layer table, probes, replay passes
// ---------------------------------------------------------------------------

/// Up to `n` jobs spread evenly over the list.
std::vector<Job> probe_jobs(const std::vector<Job>& jobs, std::size_t n) {
  std::vector<Job> out;
  const std::size_t k = std::min(n, jobs.size());
  for (std::size_t i = 0; i < k; ++i) out.push_back(jobs[i * jobs.size() / k]);
  return out;
}

void print_row(const std::string& name, double ms_total, double share, std::uint64_t count) {
  std::printf("  %-28s %12.3f %8.2f%% %12llu %12.1f\n", name.c_str(), ms_total, share,
              static_cast<unsigned long long>(count),
              count == 0 ? 0.0 : ms_total * 1e6 / static_cast<double>(count));
}

/// Runs the traced rep's passes after the timed body, prints the layer table
/// and returns the per-layer metrics this process measures (the parent adds
/// trace.overhead_pct and proc.cpu_util_pct).
std::map<std::string, double> traced_layers(const Workload& w, Rep& rep) {
  const std::vector<Job> jobs = w.jobs(rep);
  double table_wall_s = rep.wall_s;
  if (!w.body_runs_jobs) {
    // Job pass: the workload's scenario jobs, sequential, under LayerClock.
    rep.job_ms.clear();
    const double t0 = now_s();
    for (const Job& job : jobs) (void)rep.run(job);
    table_wall_s = now_s() - t0;
  }
  if (w.traced_extra != nullptr) w.traced_extra(rep);

  // Merge the per-algorithm clocks row by row.
  std::vector<LayerClock::Row> rows;
  std::uint64_t events = 0, sends = 0, bytes = 0, deliveries = 0, slots = 0;
  std::int64_t handler_ns = 0;
  for (const auto& [name, clock] : rep.clocks) {
    for (const LayerClock::Row& r : clock.rows()) {
      auto it = std::find_if(rows.begin(), rows.end(),
                             [&](const LayerClock::Row& x) { return x.name == r.name; });
      if (it == rows.end()) {
        rows.push_back(r);
      } else {
        it->ns += r.ns;
        it->count += r.count;
      }
    }
    events += clock.events();
    sends += clock.sends();
    bytes += clock.bytes();
    deliveries += clock.deliveries();
    slots = std::max(slots, clock.queue_slots());
    handler_ns += clock.handler_ns();
  }
  auto row = [&](std::size_t context) -> const LayerClock::Row& { return rows.at(context); };
  auto mean_ns = [&](std::size_t context) {
    const LayerClock::Row& r = row(context);
    return r.count == 0 ? 0.0 : static_cast<double>(r.ns) / static_cast<double>(r.count);
  };

  // The layer table: clock rows, then (run_scenario workloads) the spans
  // around library calls made between jobs, then the residual.
  const double wall_ms = table_wall_s * 1e3;
  double attributed_ms = 0.0;
  std::printf("\n[%s] traced rep: where %.3f s went (%s)\n", w.name, table_wall_s,
              w.body_runs_jobs ? "the workload's own run_scenario calls"
                               : "job pass over the workload's scenario jobs");
  std::printf("  %-28s %12s %9s %12s %12s\n", "row", "total ms", "share", "count", "mean ns");
  std::vector<LayerClock::Row> sorted = rows;
  if (w.body_runs_jobs) sorted.insert(sorted.end(), rep.spans.begin(), rep.spans.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const LayerClock::Row& a, const LayerClock::Row& b) { return a.ns > b.ns; });
  for (const LayerClock::Row& r : sorted) {
    const double r_ms = static_cast<double>(r.ns) * 1e-6;
    attributed_ms += r_ms;
    print_row(r.name, r_ms, 100.0 * r_ms / wall_ms, r.count);
  }
  const double other_ms = wall_ms - attributed_ms;
  print_row("other", other_ms, 100.0 * other_ms / wall_ms, 0);
  print_row("= traced wall", wall_ms, 100.0, 0);
  if (!w.body_runs_jobs) {
    std::printf("  workload spans over its %.3f s traced wall:\n", rep.wall_s);
    double spans_ms = 0.0;
    for (const LayerClock::Row& s : rep.spans) {
      const double s_ms = static_cast<double>(s.ns) * 1e-6;
      spans_ms += s_ms;
      print_row(s.name, s_ms, 100.0 * s_ms / (rep.wall_s * 1e3), s.count);
    }
    print_row("other", rep.wall_s * 1e3 - spans_ms, 100.0 * (1.0 - spans_ms * 1e-3 / rep.wall_s), 0);
  }
  for (const auto& [name, clock] : rep.clocks) {
    std::int64_t ns = 0;
    for (const LayerClock::Row& r : clock.rows()) ns += r.ns;
    const std::uint64_t grants = clock.rows()[LayerClock::kGrant].count;
    std::printf("  algo.%s.wall_share %.2f%%   algo.%s.msgs_per_cs %.3f\n", name.c_str(),
                100.0 * static_cast<double>(ns) * 1e-6 / wall_ms, name.c_str(),
                grants == 0 ? 0.0 : static_cast<double>(clock.sends()) / static_cast<double>(grants));
  }

  // Probes: a few of the jobs re-run with a StreamRecorder, then the passes.
  const std::size_t cap = rep.smoke ? 100'000 : 600'000;
  const std::vector<Job> probes = probe_jobs(jobs, 4);
  ReplayPasses passes;
  for (const Job& job : probes) {
    StreamRecorder recorder(job.spec.system.num_sites, job.spec.system.num_resources,
                            cap / probes.size());
    scenario::ScenarioSpec spec = job.spec;
    spec.measure = std::min(spec.measure, ms(20'000));
    (void)scenario::run_scenario(spec, job.algorithm, &recorder);
    passes.run(recorder.take(), 3);
  }

  // Fabric payload costs over the traced jobs' results.
  double serialize_ns = 0.0, parse_ns = 0.0, payload_bytes = 0.0;
  for (const experiment::ExperimentResult& r : rep.results) {
    const std::int64_t t0 = now_ns();
    const std::string payload = fabric::serialize_result(r);
    const std::int64_t t1 = now_ns();
    (void)fabric::parse_result(payload);
    const std::int64_t t2 = now_ns();
    serialize_ns += static_cast<double>(t1 - t0);
    parse_ns += static_cast<double>(t2 - t1);
    payload_bytes += static_cast<double>(payload.size());
  }
  const double n_results = std::max<double>(1.0, static_cast<double>(rep.results.size()));
  const double requests = static_cast<double>(row(LayerClock::kRequest).count);

  std::map<std::string, double> m;
  m["sim.events"] = static_cast<double>(events);
  m["net.messages"] = static_cast<double>(sends);
  m["net.bytes"] = static_cast<double>(bytes);
  m["sim.queue_slots"] = static_cast<double>(slots);
  m["sim.ns_per_event"] = passes.engine.per_item();
  m["net.ns_per_msg"] = passes.network.per_item();
  m["sim.instant_ns"] = mean_ns(LayerClock::kInstant);
  m["algo.deliver_ns"] = deliveries == 0 ? 0.0 : static_cast<double>(handler_ns) / static_cast<double>(deliveries);
  m["algo.request_ns"] = mean_ns(LayerClock::kRequest);
  m["algo.release_ns"] = mean_ns(LayerClock::kRelease);
  m["scenario.grant_ns"] = mean_ns(LayerClock::kGrant);
  m["algo.handler_share_pct"] = 100.0 * static_cast<double>(handler_ns) * 1e-6 / wall_ms;
  m["alloc.per_request"] = static_cast<double>(rep.job_alloc.count) / std::max(1.0, requests);
  m["alloc.bytes_per_request"] = static_cast<double>(rep.job_alloc.bytes) / std::max(1.0, requests);
  m["scenario.setup_ms"] = mean_ns(LayerClock::kSetup) * 1e-6;
  m["scenario.alloc_bytes_per_site"] =
      static_cast<double>(rep.setup_alloc.bytes) / std::max<double>(1.0, static_cast<double>(rep.setup_sites));
  m["metrics.collector_ns_per_request"] = passes.collector.per_item();
  m["check.monitor_ns_per_event"] = passes.monitor.per_item();
  m["obs.recorder_ns_per_event"] = passes.recorder.per_item();
  m["obs.export_ns_per_span"] = passes.exporter.per_item();
  const Spread job_ms = spread(rep.job_ms);
  m["experiment.job_ms.p50"] = job_ms.median;
  m["experiment.job_ms.max"] = job_ms.max;
  m["fabric.serialize_us_per_job"] = serialize_ns * 1e-3 / n_results;
  m["fabric.parse_us_per_job"] = parse_ns * 1e-3 / n_results;
  m["fabric.payload_bytes"] = payload_bytes / n_results;
  m["layer.other_pct"] = 100.0 * other_ms / wall_ms;
  return m;
}

// ---------------------------------------------------------------------------
// Child process: one rep
// ---------------------------------------------------------------------------

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  int reps = 0;          ///< 0 = the workload's default
  double seconds = 0.0;  ///< > 0: add reps while the budget allows
  bool trace = false;
  bool smoke = false;
  std::string json_path;
  // Child mode (internal).
  bool child = false;
  int result_fd = -1;
  std::int64_t spawned_ns = 0;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int child_main(const Options& o) {
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) return 2;
  if (o.trace) alloc::enable();
  Rep rep(o.smoke, o.seed, o.trace, o.spawned_ns);
  try {
    w->body(rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("workload threw: ") + e.what());
  }
  rep.mark_done();

  std::ostringstream out;
  std::map<std::string, double> layers;
  if (o.trace) {
    try {
      layers = traced_layers(*w, rep);
    } catch (const std::exception& e) {
      rep.fail(std::string("traced passes threw: ") + e.what());
    }
    if (!rep.extras.empty()) {
      std::printf("  workload-specific:\n");
      for (const ExtraRow& x : rep.extras) {
        std::printf("  %-34s %16.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
      }
    }
    std::fflush(stdout);
  }
  out << "wall_s " << fmt(rep.wall_s) << "\n"
      << "setup_s " << fmt(rep.setup_s) << "\n"
      << "cpu_s " << fmt(rep.cpu_s_used) << "\n"
      << "rss_peak_mb " << fmt(rep.rss_peak_mb) << "\n"
      << "requests " << rep.requests << "\n"
      << "attempted " << rep.attempted << "\n"
      << "failed " << rep.failed << "\n"
      << "digest " << hex64(rep.digest.value()) << "\n";
  for (const auto& [name, value] : layers) out << "layer " << name << " " << fmt(value) << "\n";
  if (!rep.failure.empty()) {
    std::string f = rep.failure;
    std::replace(f.begin(), f.end(), '\n', ' ');
    out << "failure " << f << "\n";
  }
  const std::string text = out.str();
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(o.result_fd, text.data() + off, text.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 3;
    off += static_cast<std::size_t>(n);
  }
  ::close(o.result_fd);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: spawn reps, aggregate, report
// ---------------------------------------------------------------------------

struct RepOutcome {
  bool ok = false;
  std::string error;
  double elapsed_s = 0.0;  ///< parent-side, spawn to exit
  std::map<std::string, std::string> kv;
  std::map<std::string, double> layers;

  [[nodiscard]] double num(const std::string& key) const {
    auto it = kv.find(key);
    return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    auto it = kv.find(key);
    return it == kv.end() ? std::string() : it->second;
  }
};

/// Runs one rep in a fresh child process and waits for it; a child still
/// running after `timeout_s` is killed and reported as a failed rep.
RepOutcome spawn_rep(const Options& o, const Workload& w, bool traced, double timeout_s) {
  RepOutcome out;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    out.error = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  constexpr int kResultFd = 3;
  const std::int64_t spawned = now_ns();
  std::vector<std::string> args = {
      "mra_bench", "--child", std::string("--workload=") + w.name,
      "--seed=" + std::to_string(o.seed), "--trace=" + std::string(traced ? "1" : "0"),
      "--result-fd=" + std::to_string(kResultFd), "--spawned-ns=" + std::to_string(spawned)};
  if (o.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    out.error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return out;
  }
  if (pid == 0) {
    // Dies with the parent, so an interrupted run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    // dup2 onto itself keeps FD_CLOEXEC, so clear it explicitly then.
    if (fds[1] == kResultFd ? ::fcntl(kResultFd, F_SETFD, 0) < 0
                            : ::dup2(fds[1], kResultFd) < 0) {
      ::_exit(125);
    }
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);

  std::string text;
  char buf[4096];
  bool timed_out = false;
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const double left = deadline - now_s();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(std::min(left, 1.0) * 1000) + 1);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  out.elapsed_s = static_cast<double>(now_ns() - spawned) * 1e-9;
  if (timed_out) {
    out.error = "timed out after " + fmt(timeout_s) + " s";
    return out;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.error = WIFSIGNALED(status) ? "killed by signal " + std::to_string(WTERMSIG(status))
                                    : "exit code " + std::to_string(WEXITSTATUS(status));
    return out;
  }
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (key == "layer") {
      const std::size_t sp2 = value.find(' ');
      out.layers[value.substr(0, sp2)] = std::strtod(value.c_str() + sp2 + 1, nullptr);
    } else {
      out.kv[key] = value;
    }
  }
  out.ok = out.kv.count("digest") == 1;
  if (!out.ok) out.error = "no result from the child";
  return out;
}

const Pin* find_pin(const Workload& w, bool smoke) {
  for (const Pin& p : kPins) {
    if (p.workload == w.name && p.smoke == smoke) return &p;
  }
  return nullptr;
}

enum class RepKind { kWarmup, kMeasured, kTraced };

/// Everything the parent learns about one workload.
struct WorkloadRun {
  const Workload* w = nullptr;
  std::vector<RepOutcome> warmups;  ///< checked, not measured
  std::vector<RepOutcome> reps;     ///< untraced, measured
  std::optional<RepOutcome> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void problem(const std::string& p) {
    problems.push_back(p);
    std::fprintf(stderr, "[%s] FAILED: %s\n", w->name, p.c_str());
  }

  [[nodiscard]] Spread metric(const char* key) const {
    std::vector<double> v;
    for (const RepOutcome& r : reps) {
      if (r.ok) v.push_back(r.num(key));
    }
    return spread(v);
  }

  [[nodiscard]] double reported(const MetricDef& m) const {
    const Spread s = metric(m.name);
    return m.fastest ? s.min : s.median;
  }

  [[nodiscard]] double mean_rep_s() const {
    double s = 0.0;
    for (const RepOutcome& r : reps) s += r.elapsed_s;
    if (reps.empty()) return warmups.empty() ? 0.0 : warmups.back().elapsed_s;
    return s / static_cast<double>(reps.size());
  }
};

void absorb(WorkloadRun& run, RepOutcome rep, RepKind kind) {
  if (!rep.ok) {
    run.attempted += 1;
    run.failed += 1;
    run.problem("rep failed: " + rep.error);
  } else {
    run.attempted += static_cast<std::uint64_t>(rep.num("attempted"));
    const auto failed = static_cast<std::uint64_t>(rep.num("failed"));
    run.failed += failed;
    if (failed != 0) run.problem(rep.str("failure"));
  }
  static constexpr const char* kNames[] = {"warm-up", "measured", "traced"};
  std::fprintf(stderr, "[%s] %s rep: %s, wall %.4f s of %.3f s, digest %s\n", run.w->name,
               kNames[static_cast<int>(kind)], rep.ok ? "ok" : "FAILED", rep.num("wall_s"),
               rep.elapsed_s, rep.str("digest").c_str());
  switch (kind) {
    case RepKind::kWarmup: run.warmups.push_back(std::move(rep)); break;
    case RepKind::kMeasured: run.reps.push_back(std::move(rep)); break;
    case RepKind::kTraced: run.traced = std::move(rep); break;
  }
}

/// Digest agreement, seed-1 pins, and the traced rep's counts and layer rule.
void check_outputs(WorkloadRun& run, const Options& o) {
  std::vector<const RepOutcome*> all;
  for (const std::vector<RepOutcome>* reps : {&run.warmups, &run.reps}) {
    for (const RepOutcome& r : *reps) {
      if (r.ok) all.push_back(&r);
    }
  }
  if (run.traced && run.traced->ok) all.push_back(&*run.traced);
  if (all.empty()) return;
  const std::string digest = all.front()->str("digest");
  for (const RepOutcome* r : all) {
    if (r->str("digest") != digest) {
      ++run.failed;
      run.problem("reps disagree: digest " + r->str("digest") + " vs " + digest);
    }
  }
  const Pin* pin = o.seed == 1 ? find_pin(*run.w, o.smoke) : nullptr;
  if (pin != nullptr && hex64(pin->digest) != digest) {
    ++run.failed;
    run.problem("digest " + digest + " differs from the seed-1 pin " + hex64(pin->digest));
  }
  if (run.traced && run.traced->ok) {
    const RepOutcome& t = *run.traced;
    const auto count = [&](const char* k) -> std::uint64_t {
      return t.layers.count(k) ? static_cast<std::uint64_t>(t.layers.at(k)) : ~std::uint64_t{0};
    };
    if (pin != nullptr && (count("sim.events") != pin->events ||
                           count("net.messages") != pin->messages ||
                           count("net.bytes") != pin->bytes)) {
      ++run.failed;
      run.problem("traced counts (events " + std::to_string(count("sim.events")) + ", messages " +
                  std::to_string(count("net.messages")) + ", bytes " +
                  std::to_string(count("net.bytes")) + ") differ from the seed-1 pin");
    }
    const double other = t.layers.count("layer.other_pct") ? t.layers.at("layer.other_pct") : 0.0;
    if (run.w->body_runs_jobs && std::abs(other) > kLayerSumTolerancePct) {
      const std::string msg = "layer table leaves " + fmt(other) + "% of the traced wall in 'other'";
      if (o.smoke) {
        ++run.failed;
        run.problem(msg);
      } else {
        std::fprintf(stderr, "[%s] warning: %s\n", run.w->name, msg.c_str());
      }
    }
  }
}

void print_end_to_end(const std::vector<WorkloadRun>& runs) {
  std::printf("\n%-15s %-16s %-6s %14s %14s %14s %14s %5s\n", "workload", "metric", "unit",
              "reported", "median", "min", "max", "reps");
  for (const WorkloadRun& run : runs) {
    const char* name = run.w->name;
    auto line = [&](const char* metric, const char* unit, Spread s, double reported) {
      std::printf("%-15s %-16s %-6s %14.6g %14.6g %14.6g %14.6g %5zu\n", name, metric, unit,
                  reported, s.median, s.min, s.max, run.reps.size());
      name = "";
    };
    for (const MetricDef& m : kEndToEnd) line(m.name, m.unit, run.metric(m.name), run.reported(m));
    std::vector<double> rps;
    for (const RepOutcome& r : run.reps) {
      if (r.ok && r.num("requests") > 0) rps.push_back(r.num("requests") / r.num("wall_s"));
    }
    if (!rps.empty()) line("requests_per_s", "1/s", spread(rps), spread(rps).max);
    const double frac = run.attempted == 0 ? 0.0 : static_cast<double>(run.failed) / static_cast<double>(run.attempted);
    line("failed_frac", "1", Spread{frac, frac, frac}, frac);
    std::printf("%-15s digest %s (%s)\n", "", run.reps.empty() ? "-" : run.reps[0].str("digest").c_str(),
                run.problems.empty() ? "reps agree" : "PROBLEMS, see stderr");
  }
}

/// Per-layer metrics of a traced rep, completed with the two the parent
/// measures: trace overhead and the untraced reps' CPU utilisation.
std::map<std::string, double> layer_metrics(const WorkloadRun& run) {
  std::map<std::string, double> m = run.traced ? run.traced->layers : std::map<std::string, double>{};
  const double untraced_wall = run.reported(kEndToEnd[0]);
  const double traced_wall = run.traced ? run.traced->num("wall_s") : 0.0;
  m["trace.overhead_pct"] = untraced_wall > 0 ? 100.0 * (traced_wall - untraced_wall) / untraced_wall : 0.0;
  std::vector<double> util;
  for (const RepOutcome& r : run.reps) {
    if (r.ok && r.num("wall_s") > 0) util.push_back(100.0 * r.num("cpu_s") / r.num("wall_s"));
  }
  m["proc.cpu_util_pct"] = spread(util).median;
  return m;
}

void print_layers(const std::vector<WorkloadRun>& runs) {
  for (const WorkloadRun& run : runs) {
    if (!run.traced) continue;
    const std::map<std::string, double> m = layer_metrics(run);
    std::printf("\n[%s] per-layer metrics\n", run.w->name);
    for (const MetricDef& d : kPerLayer) {
      std::printf("  %-34s %16.6g %s\n", d.name, m.count(d.name) ? m.at(d.name) : 0.0, d.unit);
    }
  }
}

/// A JSON number; a metric left undefined by a failed rep becomes null.
std::string json_num(double v) { return std::isfinite(v) ? fmt(v) : "null"; }

void write_metric(std::ostream& os, bool& first, const std::string& name, double value, const char* unit) {
  os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << json_num(value)
     << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

/// The last line of standard output. One workload: metric names as in
/// BENCHMARK.json; several: prefixed with "<workload>/".
std::string result_line(const std::vector<WorkloadRun>& runs, bool trace, bool correct) {
  std::uint64_t attempted = 0, failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const WorkloadRun& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
    const std::string prefix = runs.size() == 1 ? "" : std::string(run.w->name) + "/";
    if (trace) {
      const std::map<std::string, double> m = layer_metrics(run);
      for (const MetricDef& d : kPerLayer) {
        write_metric(metrics, first, prefix + d.name, m.count(d.name) ? m.at(d.name) : 0.0, d.unit);
      }
    } else {
      for (const MetricDef& d : kEndToEnd) {
        write_metric(metrics, first, prefix + d.name, run.reported(d), d.unit);
      }
    }
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::uint64_t>(attempted, 1) << ", \"failed\": " << failed
     << ", \"metrics\": {" << metrics.str() << "}}";
  return os.str();
}

void write_json_file(const std::string& path, const std::vector<WorkloadRun>& runs, const Options& o) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f << "{\"tool\": \"mra_bench\", \"seed\": " << o.seed << ", \"smoke\": "
    << (o.smoke ? "true" : "false") << ", \"workloads\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    f << (i ? "," : "") << "\n  {\"name\": \"" << run.w->name << "\", \"reps\": " << run.reps.size()
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"digest\": \"" << (run.reps.empty() ? "" : run.reps[0].str("digest"))
      << "\", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : kEndToEnd) {
      const Spread s = run.metric(d.name);
      f << (first ? "" : ", ") << "\"" << d.name << "\": {\"unit\": \"" << d.unit
        << "\", \"reported\": " << json_num(run.reported(d))
        << ", \"median\": " << json_num(s.median) << ", \"min\": " << json_num(s.min)
        << ", \"max\": " << json_num(s.max) << ", \"reps\": [";
      for (std::size_t k = 0; k < run.reps.size(); ++k) {
        f << (k ? ", " : "") << json_num(run.reps[k].num(d.name));
      }
      f << "]}";
      first = false;
    }
    f << "}";
    if (run.traced) {
      f << ", \"per_layer\": {";
      bool lf = true;
      for (const auto& [name, value] : layer_metrics(run)) {
        f << (lf ? "" : ", ") << "\"" << name << "\": " << json_num(value);
        lf = false;
      }
      f << "}";
    }
    f << "}";
  }
  f << "\n]}\n";
}

int parent_main(const Options& o) {
  std::vector<WorkloadRun> runs;
  for (const Workload& w : kWorkloads) {
    if (o.workload == "all" || o.workload == w.name) {
      runs.emplace_back();
      runs.back().w = &w;
    }
  }
  if (runs.empty()) {
    std::fprintf(stderr, "unknown workload '%s' (all", o.workload.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " | %s", w.name);
    std::fprintf(stderr, ")\n");
    return 2;
  }
  const double start = now_s();
  // Whatever happens, finish well inside a 180 s envelope.
  const double hard_stop = start + 170.0;
  auto min_reps = [&](const WorkloadRun& r) {
    if (o.smoke) return 2;
    return o.reps > 0 ? o.reps : r.w->default_reps;
  };
  auto timeout = [&] { return std::max(1.0, std::min(120.0, hard_stop - now_s())); };

  // One discarded warm-up rep per workload first: the first process after
  // an idle spell runs measurably slower (cold caches, host scheduling).
  for (WorkloadRun& r : runs) absorb(r, spawn_rep(o, *r.w, false, timeout()), RepKind::kWarmup);
  // Rep-major round-robin: round k runs rep k of every workload still going.
  for (int round = 0;; ++round) {
    double round_estimate = 0.0;
    std::vector<WorkloadRun*> active;
    for (WorkloadRun& r : runs) {
      const bool needed = round < min_reps(r);
      if (needed || (o.seconds > 0 && !o.trace && !o.smoke)) {
        active.push_back(&r);
        round_estimate += r.mean_rep_s();
      }
    }
    if (active.empty()) break;
    const bool any_needed = std::any_of(active.begin(), active.end(),
                                        [&](WorkloadRun* r) { return round < min_reps(*r); });
    if (!any_needed && now_s() - start + round_estimate > o.seconds) break;
    if (now_s() + round_estimate > hard_stop - 30.0 && round > 0) break;
    for (WorkloadRun* r : active) absorb(*r, spawn_rep(o, *r->w, false, timeout()), RepKind::kMeasured);
  }
  if (o.trace || o.smoke) {
    for (WorkloadRun& r : runs) absorb(r, spawn_rep(o, *r.w, true, timeout()), RepKind::kTraced);
  }

  bool correct = true;
  for (WorkloadRun& r : runs) {
    check_outputs(r, o);
    if (!r.problems.empty() || r.failed != 0) correct = false;
  }
  print_end_to_end(runs);
  if (o.trace || o.smoke) print_layers(runs);
  if (!o.json_path.empty()) write_json_file(o.json_path, runs, o);
  std::printf("\nmra_bench: %s in %.1f s (seed %llu%s)\n", correct ? "all outputs correct" : "FAILED",
              now_s() - start, static_cast<unsigned long long>(o.seed), o.smoke ? ", smoke" : "");
  std::printf("%s\n", result_line(runs, o.trace, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: mra_bench [--workload=NAME|all] [--seed=S] [--reps=K] [--seconds=T]\n"
      "                 [--trace[=0|1]] [--smoke] [--json=PATH]\n"
      "  --workload   one of the workloads below, or all (default)\n"
      "  --seed       workload seed (default 1; seed 1 is checked against pins)\n"
      "  --reps       minimum untraced reps per workload (default 3, fabric-spool 5)\n"
      "  --seconds    keep adding reps, round-robin, while this budget allows\n"
      "  --trace      one extra traced rep per workload: per-layer table and metrics\n"
      "  --smoke      all checks at ~1/20 scale (pre-push check, well under 15 s)\n"
      "  --json       also write every metric to PATH\n"
      "workloads:\n");
  for (const Workload& w : kWorkloads) std::printf("  %-14s %s\n", w.name, w.why);
  std::exit(code);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    std::fprintf(stderr, "%s: not a non-negative integer: '%s'\n", flag.c_str(), v.c_str());
    std::exit(2);
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--child") {
      o.child = true;
    } else if (arg == "--trace") {
      // Bare flag, or the "--trace 0|1" spelling of the BENCHMARK.json
      // command line.
      o.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 || std::strcmp(argv[i + 1], "1") == 0)) {
        o.trace = argv[++i][0] == '1';
      }
    } else if (cli::flag_value(argc, argv, i, "--trace", v)) {
      if (v != "0" && v != "1") usage(2);
      o.trace = v == "1";
    } else if (cli::flag_value(argc, argv, i, "--workload", v)) {
      o.workload = v;
    } else if (cli::flag_value(argc, argv, i, "--seed", v)) {
      o.seed = parse_u64("--seed", v);
    } else if (cli::flag_value(argc, argv, i, "--reps", v)) {
      o.reps = static_cast<int>(std::min<std::uint64_t>(parse_u64("--reps", v), 1000));
      if (o.reps == 0) usage(2);
    } else if (cli::flag_value(argc, argv, i, "--seconds", v)) {
      o.seconds = static_cast<double>(std::min<std::uint64_t>(parse_u64("--seconds", v), 3600));
    } else if (cli::flag_value(argc, argv, i, "--json", v)) {
      o.json_path = v;
    } else if (cli::flag_value(argc, argv, i, "--result-fd", v)) {
      o.result_fd = static_cast<int>(parse_u64("--result-fd", v));
    } else if (cli::flag_value(argc, argv, i, "--spawned-ns", v)) {
      o.spawned_ns = static_cast<std::int64_t>(parse_u64("--spawned-ns", v));
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(2);
    }
  }
  return o;
}

}  // namespace
}  // namespace mra_bench

int main(int argc, char** argv) {
  const mra_bench::Options o = mra_bench::parse(argc, argv);
  try {
    return o.child ? mra_bench::child_main(o) : mra_bench::parent_main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mra_bench: %s\n", e.what());
    return 1;
  }
}
