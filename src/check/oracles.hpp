// Online conformance oracles: each one watches the typed event stream of a
// running simulation and reports structured Violation records the moment a
// property breaks — not only after quiescence, so transient violations that
// self-heal are caught too. The properties are the paper's §1 guarantees
// (per-resource mutual exclusion, deadlock freedom, starvation freedom)
// plus the §3.1 system-model contract (reliable FIFO channels) and the
// message-complexity accounting of §5.
//
// Oracles are pluggable: check::Monitor owns a set of them (built from
// MonitorConfig, extendable via Monitor::add_oracle) and fans the event
// stream out. Oracles never assert or throw on a protocol bug — they report
// to a ViolationSink and keep observing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "check/event.hpp"
#include "check/violation.hpp"
#include "core/resource_set.hpp"

namespace mra::check {

/// Where oracles deliver their findings (implemented by Monitor, which
/// attaches the recent-event window and handles stop-on-first-violation).
class ViolationSink {
 public:
  virtual ~ViolationSink() = default;
  virtual void report(Violation violation) = 0;
};

/// One pluggable property checker.
class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Stable name, also used as Violation::oracle.
  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void on_event(const Event& event, ViolationSink& sink) = 0;

  /// Clock advanced to a new instant (before its events fire).
  virtual void on_advance(sim::SimTime now, ViolationSink& sink) {
    (void)now;
    (void)sink;
  }

  /// End of run. `quiescent` is true when the event queue drained with no
  /// more work outstanding — the state in which "still waiting" means
  /// "waiting forever".
  virtual void finalize(sim::SimTime now, bool quiescent,
                        ViolationSink& sink) {
    (void)now;
    (void)quiescent;
    (void)sink;
  }
};

/// Per-resource mutual exclusion (§1 safety): at any instant each resource
/// is held by at most one site. Custody comes from kAcquire/kHold events and
/// ends at kRelease.
class MutualExclusionOracle final : public Oracle {
 public:
  explicit MutualExclusionOracle(int num_resources);

  [[nodiscard]] std::string_view name() const override {
    return "mutual-exclusion";
  }
  void on_event(const Event& event, ViolationSink& sink) override;

 private:
  void claim(const Event& event, ResourceId r, ViolationSink& sink);

  std::vector<SiteId> owner_;  ///< per resource; kNoSite = free
};

/// Deadlock freedom (§1 liveness): maintains the site wait-for graph —
/// edge u -> v iff u waits for a resource v currently holds — and runs an
/// incremental cycle check from every site whose wants or holds changed.
/// kHold events (per-resource custody during acquisition, e.g. the
/// Incremental baseline's ordered locking) make genuine hold-and-wait
/// cycles visible online; finalize() additionally flags sites still waiting
/// at quiescence, which catches deadlocks with no observable cycle (a
/// dropped token leaves the waiter with an edge to nobody).
class DeadlockOracle final : public Oracle {
 public:
  DeadlockOracle(int num_sites, int num_resources);

  [[nodiscard]] std::string_view name() const override { return "deadlock"; }
  void on_event(const Event& event, ViolationSink& sink) override;
  void finalize(sim::SimTime now, bool quiescent,
                ViolationSink& sink) override;

 private:
  void check_cycle_from(SiteId start, sim::SimTime at, ViolationSink& sink);

  std::vector<ResourceSet> held_;    ///< per site: resources in custody
  std::vector<ResourceSet> wanted_;  ///< per site: outstanding request
  std::vector<bool> waiting_;        ///< per site: requested, not granted
  std::vector<std::string> reported_cycles_;  ///< dedup signatures
};

/// Starvation freedom / bounded waiting: no request may wait longer than a
/// configurable horizon. Deadlines are checked online as the clock passes
/// them (on_advance) and once more at finalize, so a starving site is
/// reported even when the run ends first. The horizon is a *budget*, not a
/// bound proven by the paper — pick it well above the workload's worst
/// honest waiting time (see DESIGN.md §11).
class StarvationOracle final : public Oracle {
 public:
  StarvationOracle(int num_sites, sim::SimDuration horizon);

  [[nodiscard]] std::string_view name() const override {
    return "starvation";
  }
  void on_event(const Event& event, ViolationSink& sink) override;
  void on_advance(sim::SimTime now, ViolationSink& sink) override;
  void finalize(sim::SimTime now, bool quiescent,
                ViolationSink& sink) override;

 private:
  struct Deadline {
    sim::SimTime at;
    SiteId site;
    std::int64_t seq;
  };

  void expire(sim::SimTime now, ViolationSink& sink);
  void report(SiteId site, sim::SimTime now, ViolationSink& sink);

  sim::SimDuration horizon_;
  std::vector<std::int64_t> waiting_seq_;  ///< per site; -1 = not waiting
  std::vector<sim::SimTime> waiting_since_;
  std::deque<Deadline> deadlines_;  ///< FIFO: deadlines are pushed in
                                    ///< nondecreasing event-time order
};

/// Reliable-FIFO channel contract (§3.1) plus causal sanity: on every link,
/// messages deliver in send order — the sender's logical send clock (its own
/// vector-clock component, the only one the FIFO-per-link model constrains)
/// must strictly increase along delivered messages — and never before they
/// were sent. Full cross-link causal-delivery checking is deliberately out
/// of scope: with FIFO-only channels a multi-hop message can legitimately
/// outrun a direct one, so flagging it would reject schedules the paper's
/// model allows (see ROADMAP "Causal-delivery oracle").
class FifoOracle final : public Oracle {
 public:
  explicit FifoOracle(int num_sites);

  [[nodiscard]] std::string_view name() const override { return "fifo"; }
  void on_event(const Event& event, ViolationSink& sink) override;

 private:
  struct InFlight {
    std::int64_t msg_id;
    sim::SimTime sent_at;
    std::uint64_t sender_tick;  ///< sender's send clock at send time
  };

  int n_;
  std::vector<std::deque<InFlight>> links_;         ///< [src * n + dst]
  std::vector<std::uint64_t> send_clock_;           ///< per site
  std::vector<std::uint64_t> last_delivered_tick_;  ///< per link
};

/// Message-complexity accounting (§5's msgs/CS metric as an oracle): counts
/// sends and CS entries, and — when a bound is configured — reports a
/// violation if the run's average messages per CS entry exceeds it. With
/// bound 0 it is pure accounting, exposed for reports and tests.
class ComplexityOracle final : public Oracle {
 public:
  explicit ComplexityOracle(double max_messages_per_cs);

  [[nodiscard]] std::string_view name() const override {
    return "message-complexity";
  }
  void on_event(const Event& event, ViolationSink& sink) override;
  void finalize(sim::SimTime now, bool quiescent,
                ViolationSink& sink) override;

  [[nodiscard]] std::uint64_t messages() const { return sends_; }
  [[nodiscard]] std::uint64_t cs_entries() const { return acquires_; }
  [[nodiscard]] double messages_per_cs() const {
    return acquires_ == 0 ? 0.0
                          : static_cast<double>(sends_) /
                                static_cast<double>(acquires_);
  }

 private:
  double bound_;
  std::uint64_t sends_ = 0;
  std::uint64_t acquires_ = 0;
};

}  // namespace mra::check
