// The adversarial schedule explorer: hunts schedule-dependent protocol bugs
// in three modes, every run carrying a full check::Monitor.
//
//  * Fuzz (the original mode): registry scenarios and the raw substrates
//    across a seed sweep under randomized latency perturbation — every
//    message gets an extra uniform delay in [0, bound], i.e. delay-bounded
//    cross-link reordering while the network keeps each ordered link FIFO
//    (the paper's §3.1 contract). Sweeps shard over experiment::run_sweep
//    in fixed-size waves, so reports are independent of --threads.
//  * Exhaustive (src/check/dpor.*): systematic enumeration of same-instant
//    commutations on tiny configurations — model checking with a
//    persistent-set-style reduction and explored/pruned coverage stats.
//    One target (scenario + algorithm, mutex protocol, or ring) per run.
//  * Neighborhood: mutate the perturbation (seed, bound) around a found
//    violation before ddmin minimization, covering nearby schedules and
//    often shrinking the repro further.
//
// Every family — registry scenarios, the mutex substrates (Naimi-Tréhel,
// Suzuki-Kasami, Ricart-Agrawala, each adapted to an AllocatorNode) and the
// Chandy-Misra ring — runs through one fuzz driver and one exhaustive
// driver; the substrates share one site loop. Every recorded trace is a
// self-contained `# mra-trace v2` repro: it embeds algorithm, perturbation
// seed, delay bound, latency quantum and any active mutant, so
// check_replay(trace) — and `mra_explore --replay` with no other flags —
// reproduces the run bit-identically.
//
// CLI: examples/mra_explore.cpp. CI runs a fixed-budget smoke sweep plus the
// exhaustive mutant smoke and archives repro traces and coverage stats as
// artifacts (see .github/workflows/ci.yml).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/factory.hpp"
#include "check/dpor.hpp"
#include "check/monitor.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"

namespace mra::check {

// ---------------------------------------------------------------------------
// One fully checked scenario run
// ---------------------------------------------------------------------------

struct CheckOptions {
  /// Oracle configuration; num_sites/num_resources are filled from the spec.
  MonitorConfig monitor;
  /// Model-checking mode: attached to the fresh simulator before any event
  /// is scheduled. Borrowed; must outlive the call.
  sim::CommutationHook* commutation = nullptr;
};

struct CheckedRun {
  std::vector<Violation> violations;
  bool quiescent = false;  ///< drained cleanly after the measured window
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  scenario::RequestTrace trace;  ///< the run's v2 request trace
};

/// Runs `spec` under `algorithm` with the full oracle set attached and its
/// request trace recorded: measured window, then stop issuing and drain to
/// quiescence, then end-of-run checks (stuck waiters, expired wait
/// deadlines, complexity bound). A tripped event budget (200 M events) is
/// reported as a "livelock" violation, not an exception.
[[nodiscard]] CheckedRun run_checked_scenario(
    const scenario::ScenarioSpec& spec, algo::Algorithm algorithm,
    const CheckOptions& options = {});

/// Replays `trace` with a fresh Monitor attached; returns its violations
/// (budget trips again become a "livelock" violation). `delay_bound` and
/// `seed` re-create the perturbed network of the exploring run.
[[nodiscard]] std::vector<Violation> check_replay(
    const scenario::RequestTrace& trace, algo::Algorithm algorithm,
    const MonitorConfig& monitor, std::uint64_t seed,
    sim::SimDuration delay_bound);

/// Self-contained v2 replay: every knob (algorithm — a factory cli_name,
/// "nt" | "sk" | "ra", or "cm-ring" —, perturbation seed, delay bound,
/// quantum, seeded mutant) comes from the trace header. Activates the
/// trace's mutant for the duration of the replay when mutants are compiled
/// in. Throws std::invalid_argument when the trace has no algorithm header
/// (v1 traces: use the explicit overload above), when it fails
/// RequestTrace::validate(), or when a substrate trace has the wrong shape:
/// nt/sk/ra need `resources 1`, cm-ring needs `resources` equal to `sites`,
/// every substrate event names exactly one resource, and sk, ra and
/// cm-ring, whose sites each hold O(sites) state, need sites * sites within
/// RequestTrace::kMaxSiteResources.
[[nodiscard]] std::vector<Violation> check_replay(
    const scenario::RequestTrace& trace, const MonitorConfig& monitor = {});

// ---------------------------------------------------------------------------
// Live progress (obs::Heartbeat integration)
// ---------------------------------------------------------------------------

/// Shared counters an explorer updates as it goes, so a heartbeat thread can
/// report live progress on multi-hour runs. All relaxed atomics: the values
/// feed monitoring only, never the report (which stays deterministic).
/// Borrowed via the configs below; must outlive the explore call.
struct ExploreProgress {
  std::atomic<std::uint64_t> runs_total{0};  ///< set once the sweep is sized
  std::atomic<std::uint64_t> runs_done{0};
  std::atomic<std::uint64_t> schedules_executed{0};  ///< exhaustive mode
  std::atomic<std::uint64_t> orderings_pruned{0};    ///< exhaustive mode
  std::atomic<std::uint64_t> violations{0};
};

// ---------------------------------------------------------------------------
// Scenario explorer (fuzz mode)
// ---------------------------------------------------------------------------

struct ExploreConfig {
  std::vector<scenario::ScenarioSpec> scenarios;  ///< already quick-adjusted
  std::vector<algo::Algorithm> algorithms;
  int seeds_per_case = 10;     ///< seed budget per (scenario, algorithm)
  std::uint64_t base_seed = 1;
  /// Maximum extra per-message delay; each run draws its own bound in
  /// [0, this] from a deterministic meta-stream.
  sim::SimDuration delay_bound = sim::from_ms(2.0);
  bool stop_on_first = true;   ///< stop the whole sweep at the first bug
  MonitorConfig monitor;       ///< oracle template (sizes filled per spec)
  std::string trace_dir;       ///< where repro traces land ("" = don't save)
  int minimize_budget = 48;    ///< replay attempts the minimizer may spend
  /// Sweep parallelism (0 = hardware concurrency). Runs are sharded in
  /// fixed-size waves scanned in deterministic order, so the report — runs,
  /// violating_runs, and the first violation — is identical for any value.
  int threads = 1;
  /// > 0: after a reproducing violation, try this many perturbation
  /// variants (remixed seed, scaled delay bound) around it; the smallest
  /// minimized repro across the violating variants wins.
  int neighborhood_variants = 0;
  ExploreProgress* progress = nullptr;  ///< live counters (null = none)
};

struct FoundViolation {
  std::string scenario;          ///< scenario name or "mutex:<protocol>"
  std::string algorithm;         ///< cli_name, mutex protocol, or "cm-ring"
  std::uint64_t seed = 0;
  sim::SimDuration delay_bound = 0;  ///< this run's drawn perturbation
  std::vector<Violation> violations;
  std::string trace_path;        ///< saved repro trace ("" when disabled)
  std::size_t trace_events = 0;
  std::size_t minimized_events = 0;  ///< == trace_events if not minimizable
  bool replay_reproduces = false;    ///< full-trace replay shows the bug too
  /// Exhaustive mode: the DPOR choice stack of the violating schedule
  /// (replayable via DporConfig::forced_prefix / --choices).
  std::vector<std::uint64_t> commutation;
  std::uint64_t neighborhood_tried = 0;      ///< perturbation variants run
  std::uint64_t neighborhood_violating = 0;  ///< ... that still violated
};

struct ExploreReport {
  std::uint64_t runs = 0;
  std::uint64_t violating_runs = 0;
  // Exhaustive-mode coverage (zero in fuzz mode): schedules actually
  // executed vs. orderings the partial-order reduction pruned.
  std::uint64_t schedules_executed = 0;
  std::uint64_t choice_points = 0;
  std::uint64_t orderings_pruned = 0;
  bool exhaustive_complete = false;
  bool exhaustive_truncated = false;
  std::vector<FoundViolation> found;
};

[[nodiscard]] ExploreReport explore(const ExploreConfig& config);

/// Exhaustive interleaving enumeration of one (scenario, algorithm) pair.
/// The spec should be tiny (see tiny_exhaustive_spec) with
/// system.latency_quantum set so independent deliveries collide at shared
/// instants. Stops at the first violating schedule.
[[nodiscard]] ExploreReport explore_scenario_exhaustive(
    const scenario::ScenarioSpec& spec, algo::Algorithm algorithm,
    const MonitorConfig& monitor, const DporConfig& dpor,
    const std::string& trace_dir = "", ExploreProgress* progress = nullptr);

/// The golden tiny configuration for exhaustive scenario exploration:
/// 3 sites, 2 resources, deterministic-friendly load, latencies quantized
/// onto the network grid. `sites` / `resources` override the defaults.
[[nodiscard]] scenario::ScenarioSpec tiny_exhaustive_spec(int sites = 3,
                                                          int resources = 2);

// ---------------------------------------------------------------------------
// Mutex-substrate explorer (single resource, raw engines)
// ---------------------------------------------------------------------------

enum class MutexProtocol { kNaimiTrehel, kSuzukiKasami, kRicartAgrawala };

[[nodiscard]] const char* to_string(MutexProtocol p);
[[nodiscard]] std::vector<MutexProtocol> all_mutex_protocols();
/// Parses "nt" | "sk" | "ra"; throws std::invalid_argument otherwise.
[[nodiscard]] MutexProtocol mutex_protocol_from_name(const std::string& name);

struct MutexExploreConfig {
  std::vector<MutexProtocol> protocols;
  int num_sites = 8;
  int requests_per_site = 25;
  int seeds_per_case = 10;
  std::uint64_t base_seed = 1;
  sim::SimDuration delay_bound = sim::from_ms(2.0);
  bool stop_on_first = true;
  MonitorConfig monitor;  ///< sizes are overridden (num_resources = 1)
  int threads = 1;        ///< wave-sharded like ExploreConfig::threads
  std::string trace_dir;  ///< where v2 repro traces land ("" = don't save)
  ExploreProgress* progress = nullptr;  ///< live counters (null = none)
};

/// Same sweep over the three single-resource mutual-exclusion substrates.
/// Each engine runs inside a single-resource AllocatorNode adapter, so its
/// CS-lifecycle events reach the monitor through the same observer seam as
/// every allocator's. Violating runs record a self-contained v2 trace
/// (algorithm "nt" | "sk" | "ra") that check_replay(trace) re-triggers.
[[nodiscard]] ExploreReport explore_mutex(const MutexExploreConfig& config);

/// Exhaustive enumeration on the mutex substrate: all sites issue at t = 0
/// on a fixed-latency grid, every same-instant commutation is explored.
/// Deterministic: the schedule count, coverage stats and first violation
/// are a pure function of (config, dpor). One target per run:
/// config.protocols must name exactly one protocol, otherwise throws
/// std::invalid_argument.
[[nodiscard]] ExploreReport explore_mutex_exhaustive(
    const MutexExploreConfig& config, const DporConfig& dpor);

// ---------------------------------------------------------------------------
// Chandy-Misra ring explorer (conflict-graph substrate)
// ---------------------------------------------------------------------------

struct CmRingExploreConfig {
  int num_sites = 4;          ///< ring size; resource i = edge (i, i+1 mod N)
  int requests_per_site = 6;
  int seeds_per_case = 10;
  std::uint64_t base_seed = 1;
  sim::SimDuration delay_bound = sim::from_ms(2.0);
  sim::SimDuration cs = sim::from_ms(2.0);  ///< drink duration
  bool stop_on_first = true;
  MonitorConfig monitor;  ///< sizes overridden (resources = num_sites)
  int threads = 1;
  std::string trace_dir;
  ExploreProgress* progress = nullptr;  ///< live counters (null = none)
};

/// Fuzz sweep over a Chandy-Misra ring: each request picks one incident
/// edge (alternating own / left), so neighbours contend for shared bottles.
/// Violating runs record a v2 trace (algorithm "cm-ring") that
/// check_replay(trace) re-triggers.
[[nodiscard]] ExploreReport explore_cm_ring(const CmRingExploreConfig& config);

/// Exhaustive mode on the ring: site pairs (2k, 2k+1) request their shared
/// edge 2k at t = 0; every same-instant commutation is enumerated.
[[nodiscard]] ExploreReport explore_cm_ring_exhaustive(
    const CmRingExploreConfig& config, const DporConfig& dpor);

}  // namespace mra::check
