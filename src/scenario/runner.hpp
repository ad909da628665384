// Runs a ScenarioSpec against any algorithm, records request traces, and
// replays recorded traces deterministically.
//
//   run_scenario    — warm-up + measured window, like experiment::
//                     run_experiment but driven by the scenario's pluggable
//                     generators (popularity, arrivals, heterogeneity);
//   record_scenario — same run, but also returns every request born during
//                     it as a RequestTrace;
//   replay_trace    — feeds a RequestTrace to a freshly built system in
//                     open-loop fashion (arrivals at the recorded times,
//                     FIFO queue per site) and runs to quiescence so
//                     liveness is observable as completed_all. Safety is
//                     the attached check::Monitor's to judge.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "algo/factory.hpp"
#include "experiment/experiment.hpp"
#include "metrics/collector.hpp"
#include "scenario/generator.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "workload/workload.hpp"

namespace mra::check {
class Observer;
}  // namespace mra::check

namespace mra::scenario {

/// Drives one site: generates requests from the scenario's components and
/// feeds them to the AllocatorNode, closed- or open-loop depending on the
/// arrival process. The open-loop path queues arrivals born while a request
/// is in flight (one outstanding request per site, hypothesis 4).
class ScenarioDriver {
 public:
  ScenarioDriver(AllocatorNode& node, sim::Simulator& simulator,
                 const workload::WorkloadConfig& site_cfg,
                 const PopularitySpec& popularity, const ArrivalSpec& arrival,
                 sim::Rng rng, metrics::Collector& collector,
                 RequestTrace* record);

  void start();
  void stop() { stopped_ = true; }
  [[nodiscard]] std::uint64_t cycles_completed() const { return cycles_; }

 private:
  struct PendingRequest {
    sim::SimTime born = 0;
    ResourceSet resources;
    sim::SimDuration cs = 0;
  };

  void make_request();         ///< draw + record + enqueue, then dispatch
  void schedule_next_birth();  ///< closed: after release; open: after birth
  void try_dispatch();
  void on_granted();
  void on_cs_done();

  AllocatorNode& node_;
  sim::Simulator& sim_;
  workload::RequestGenerator gen_;  ///< sizes, CS durations (per-site cfg)
  sim::Rng rng_;                    ///< picker + arrival draws
  std::unique_ptr<ResourcePicker> picker_;
  std::unique_ptr<ArrivalProcess> arrival_;
  metrics::Collector& collector_;
  RequestTrace* record_;  ///< may be null

  std::deque<PendingRequest> pending_;  ///< FIFO; open loop can grow it
  bool in_flight_ = false;
  sim::SimDuration current_cs_ = 0;
  bool stopped_ = false;
  std::uint64_t cycles_ = 0;
};

/// Drivers for every site of a system plus the shared collector — the
/// scenario counterpart of workload::WorkloadRunner.
class ScenarioRunner {
 public:
  ScenarioRunner(algo::AllocationSystem& system, const ScenarioSpec& spec,
                 std::uint64_t seed, std::size_t size_buckets = 6,
                 RequestTrace* record = nullptr);

  void start();
  void stop_issuing();

  [[nodiscard]] metrics::Collector& collector() { return collector_; }
  [[nodiscard]] const metrics::Collector& collector() const {
    return collector_;
  }

 private:
  metrics::Collector collector_;
  std::vector<std::unique_ptr<ScenarioDriver>> drivers_;
};

/// Runs `spec` with `algorithm` (overriding spec.system.algorithm) through
/// warm-up + measured window. Deterministic: same spec + seed = bit-identical
/// result. Throws sim::EventBudgetExceeded on protocol livelock.
[[nodiscard]] experiment::ExperimentResult run_scenario(
    const ScenarioSpec& spec, algo::Algorithm algorithm);

/// Same run with an observer (a check::Monitor, an obs::FlightRecorder, or
/// a check::ObserverMux composing both) wired into the simulator, network
/// and every node *before* the first event fires, so it sees the complete
/// stream including warm-up. Borrowed; must outlive the call. Note the
/// network's cumulative counters are reset at the warm-up boundary (as in
/// the plain overload) — observers sampling them see the reset.
///
/// `on_wired` (optional) runs right after the observer is wired, before any
/// event fires — the spot to bind engine gauges to the freshly built system
/// (obs::FlightRecorder::enable_gauges needs its simulator and network).
[[nodiscard]] experiment::ExperimentResult run_scenario(
    const ScenarioSpec& spec, algo::Algorithm algorithm,
    check::Observer* observer,
    const std::function<void(algo::AllocationSystem&)>& on_wired = {});

/// Same run, returning the trace of every request born (warm-up included).
[[nodiscard]] RequestTrace record_scenario(const ScenarioSpec& spec,
                                           algo::Algorithm algorithm);

struct ReplayOptions {
  std::uint64_t seed = 1;  ///< network/protocol seed (trace fixes the rest)
  /// 0 = rebuild the network the trace was recorded under (header fields);
  /// > 0 overrides the base latency, e.g. to study latency sensitivity.
  sim::SimDuration network_latency = 0;
  double latency_jitter = 0.0;
  /// > 0: extra uniform per-message delay in [0, bound] — re-creates the
  /// schedule explorer's perturbed network (src/check/explore.hpp).
  sim::SimDuration latency_delay_bound = 0;
  /// > 0: round latencies up onto this grid (model-checking replays).
  sim::SimDuration latency_quantum = 0;
  std::size_t size_buckets = 6;
  /// Conformance observer wired into the replayed system's simulator,
  /// network and nodes (typically a check::Monitor). Borrowed; must outlive
  /// the call.
  check::Observer* observer = nullptr;
};

struct ReplayResult {
  experiment::ExperimentResult metrics;
  bool completed_all = false; ///< every trace event granted and released
  sim::SimTime end_time = 0;  ///< when the replay quiesced
};

/// Replays `trace` against `algorithm` and runs to quiescence. The whole
/// replay is measured (no warm-up cut): identical traces make the comparison
/// exact, so discarding a prefix is the caller's choice, not a necessity.
[[nodiscard]] ReplayResult replay_trace(const RequestTrace& trace,
                                        algo::Algorithm algorithm,
                                        const ReplayOptions& options = {});

}  // namespace mra::scenario
