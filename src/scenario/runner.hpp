// Runs a ScenarioSpec against any algorithm, records request traces, and
// replays recorded traces deterministically.
//
//   run_scenario    — warm-up + measured window, driven by the scenario's
//                     pluggable generators (popularity, arrivals,
//                     heterogeneity); the one way a run is driven, the
//                     paper's §5.1 workload included (uniform popularity,
//                     closed-loop exponential think time);
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
///
/// A driver owns no heap block until a birth has to wait: the picker and
/// the workload config are the runner's, the arrival process is held by
/// value, and the queue is built on the first birth that finds a request in
/// flight (open loop only). It is movable only so that std::vector can hold
/// it; see ScenarioRunner.
class ScenarioDriver {
 public:
  ScenarioDriver(AllocatorNode& node, sim::Simulator& simulator,
                 const workload::WorkloadConfig& site_cfg,
                 ResourcePicker& picker, const ArrivalSpec& arrival,
                 sim::Rng rng, metrics::Collector& collector,
                 RequestTrace* record);

  /// Installs the grant callback and schedules the first birth. Both
  /// capture `this`, so the driver must not move from here on.
  void start();
  void stop() { stopped_ = true; }

 private:
  struct PendingRequest {
    sim::SimTime born = 0;
    ResourceSet resources;
    sim::SimDuration cs = 0;
  };

  void make_request();         ///< draw + record, then dispatch or queue
  void schedule_next_birth();  ///< closed: after release; open: after birth
  void dispatch(const PendingRequest& req);
  void on_granted();
  void on_cs_done();

  AllocatorNode& node_;
  sim::Simulator& sim_;
  ResourcePicker& picker_;  ///< the runner's, shared by every site
  metrics::Collector& collector_;
  RequestTrace* record_;            ///< may be null
  workload::RequestGenerator gen_;  ///< sizes, CS durations (runner's cfg)
  sim::Rng rng_;                    ///< picker + arrival draws
  ArrivalProcess arrival_;
  /// Births waiting behind the in-flight request, oldest first; null until
  /// the first one has to wait. Only open loop queues, and its queues get
  /// long, so they stay deques: chunks are freed as births are served.
  std::unique_ptr<std::deque<PendingRequest>> pending_;
  sim::SimDuration current_cs_ = 0;
  bool in_flight_ = false;
  bool stopped_ = false;
};

/// Drivers for every site of a system plus the shared collector, picker
/// and workload configs.
class ScenarioRunner {
 public:
  ScenarioRunner(algo::AllocationSystem& system, const ScenarioSpec& spec,
                 std::uint64_t seed, RequestTrace* record = nullptr);
  /// Drivers hold the collector, the picker and the configs by reference.
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  void start();
  void stop_issuing();

  [[nodiscard]] metrics::Collector& collector() { return collector_; }

 private:
  metrics::Collector collector_;
  std::unique_ptr<ResourcePicker> picker_;  ///< one per run
  /// What light and heavy sites run (effective_site_workload), validated
  /// once each; every driver's generator refers to one of them.
  workload::WorkloadConfig light_;
  workload::WorkloadConfig heavy_;
  /// One driver per site, built in place at the final size: the array
  /// never reallocates, so drivers never move once started.
  std::vector<ScenarioDriver> drivers_;
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
