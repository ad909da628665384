// check::Monitor — the one Observer a simulation carries. It keeps a bounded
// ring of recent events, fans the stream out to the configured oracles,
// decorates every Violation with the trailing event window, and can stop the
// simulation at the first violation (the explorer's stop-at-first-bug mode).
//
// Fan-out: the five oracles are typed members, built from MonitorConfig's
// switches, and each event type goes straight to the oracles that handle it
// (no virtual dispatch, no oracle called for an event it ignores). Within an
// event, oracles are called in a fixed order — mutual exclusion, deadlock,
// starvation, FIFO, complexity — which is also the order their reports land
// in violations().
//
// Attachment: Monitor::attach(AllocationSystem&) wires the simulator clock
// hook, the network message hooks and every AllocatorNode's lifecycle hooks
// in one call; the explorer's substrate runs (mutex engines adapted to
// AllocatorNodes, the Chandy-Misra ring) attach sim + network and set each
// node's observer themselves. The monitor detaches itself on destruction,
// so it may safely die before the system.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "check/event.hpp"
#include "check/oracles.hpp"
#include "check/violation.hpp"

namespace mra::algo {
class AllocationSystem;
}  // namespace mra::algo
namespace mra::net {
class Network;
}  // namespace mra::net
namespace mra::sim {
class Simulator;
}  // namespace mra::sim

namespace mra::check {

struct MonitorConfig {
  int num_sites = 0;
  int num_resources = 0;

  // Which oracles to build (all on by default).
  bool mutual_exclusion = true;
  bool deadlock = true;
  bool starvation = true;
  /// Keeps an N x N link table, so the Monitor refuses it (with
  /// std::invalid_argument) above net::Network::kDenseFifoMaxSites sites,
  /// where the network itself stops keeping an N x N matrix.
  bool fifo = true;
  bool complexity = true;

  /// Bounded-waiting budget: a request waiting longer is a violation. Must
  /// sit well above the workload's worst honest waiting time — the heaviest
  /// registry scenario (paper-phi80 under Incremental's domino effect, with
  /// explorer latency perturbation on top) honestly reaches ~10 s waits in a
  /// 12 s window, hence the generous default.
  sim::SimDuration starvation_horizon = sim::from_ms(60'000);

  /// Message-complexity bound (avg msgs per CS entry); 0 = accounting only.
  double max_messages_per_cs = 0.0;

  std::size_t event_window = 32;    ///< recent events kept for reports
  std::size_t max_violations = 64;  ///< stop collecting beyond this
  bool stop_on_first = false;       ///< sim::Simulator::stop() on violation

  /// The mutual-exclusion oracle alone: the §1 safety verdict a trace
  /// replay or a stress run reports.
  [[nodiscard]] static MonitorConfig safety_only(int num_sites,
                                                 int num_resources) {
    MonitorConfig config;
    config.num_sites = num_sites;
    config.num_resources = num_resources;
    config.deadlock = false;
    config.starvation = false;
    config.fifo = false;
    config.complexity = false;
    return config;
  }
};

class Monitor final : public Observer, public ViolationSink {
 public:
  /// Throws std::invalid_argument when `fifo` is on above
  /// net::Network::kDenseFifoMaxSites sites.
  explicit Monitor(const MonitorConfig& config);
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Wires this monitor into simulator + network + every allocator node.
  /// Throws AlreadyAttachedError (check/fanout.hpp) if any hook already has
  /// a different observer — compose through an ObserverMux in that case.
  void attach(algo::AllocationSystem& system);

  /// Substrate-only wiring (mutex explorer mode): message and clock events
  /// flow automatically, CS-lifecycle events are fed via on_event().
  void attach(sim::Simulator& simulator, net::Network& network);

  /// Mux composition: when this monitor is *not* the registered observer
  /// (an ObserverMux is), report() still needs the simulator to honor
  /// stop_on_first. attach() records it implicitly; muxed monitors call
  /// this instead. The binding is stop-only and non-owning: it is used
  /// while events flow and never dereferenced by detach(), so a simulator
  /// that dies with the run (scenario::run_scenario owns it) must not be
  /// touched by a Monitor destroyed later.
  void bind_simulator(sim::Simulator& simulator) { stop_sim_ = &simulator; }

  /// Undoes attach(); called automatically on destruction.
  void detach();

  // Observer ------------------------------------------------------------------
  void on_event(const Event& event) override;
  void on_advance(sim::SimTime now) override;

  // ViolationSink -------------------------------------------------------------
  /// Decorates with the recent-event window, stores, and (stop_on_first)
  /// requests a simulator stop.
  void report(Violation violation) override;

  /// End-of-run checks (stuck waiters, expired deadlines, complexity
  /// bounds). `quiescent`: the event queue drained — nothing can still move.
  void finalize(sim::SimTime now, bool quiescent);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t events_seen() const { return events_seen_; }

  /// The trailing event window, oldest first, human-formatted.
  [[nodiscard]] std::vector<std::string> recent_events() const;

  /// The complexity oracle's accounting (null when disabled).
  [[nodiscard]] const ComplexityOracle* complexity() const {
    return complexity_ ? &*complexity_ : nullptr;
  }

 private:
  /// Compact copy of an Event: safe to keep after the callback returns
  /// (resource sets are truncated to a small inline list; message kinds are
  /// string literals with static storage).
  struct RecordedEvent {
    EventType type = EventType::kRequest;
    sim::SimTime at = 0;
    SiteId site = kNoSite;
    SiteId peer = kNoSite;
    std::int64_t seq = 0;
    ResourceId resource = kNoResource;
    std::uint32_t bytes = 0;
    std::string_view kind = {};
    std::uint8_t res_count = 0;
    bool res_truncated = false;
    ResourceId res[8] = {};
  };

  void record(const Event& event);
  [[nodiscard]] static std::string format(const RecordedEvent& e);

  MonitorConfig cfg_;
  // Empty when switched off (or sized out: no sites / resources).
  std::optional<MutualExclusionOracle> mutual_exclusion_;
  std::optional<DeadlockOracle> deadlock_;
  std::optional<StarvationOracle> starvation_;
  std::optional<FifoOracle> fifo_;
  std::optional<ComplexityOracle> complexity_;

  std::vector<RecordedEvent> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t events_seen_ = 0;

  std::vector<Violation> violations_;
  bool checking_ = true;  ///< false once max_violations is reached

  // Attachment bookkeeping for detach().
  sim::Simulator* sim_ = nullptr;
  net::Network* net_ = nullptr;
  algo::AllocationSystem* system_ = nullptr;

  /// Stop-only binding from bind_simulator(). Unlike sim_, detach() never
  /// dereferences it — the bound simulator may be long gone by then.
  sim::Simulator* stop_sim_ = nullptr;
};

}  // namespace mra::check
