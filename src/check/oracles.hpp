// Online conformance oracles: each one watches the typed event stream of a
// running simulation and reports structured Violation records the moment a
// property breaks — not only after quiescence, so transient violations that
// self-heal are caught too. The properties are the paper's §1 guarantees
// (per-resource mutual exclusion, deadlock freedom, starvation freedom)
// plus the §3.1 system-model contract (reliable FIFO channels) and the
// message-complexity accounting of §5.
//
// check::Monitor owns one of each (built from MonitorConfig's switches) as
// typed members and calls each one directly, only for the event types it
// handles; every oracle also works stand-alone on a hand-fed stream. Oracles
// never assert or throw on a protocol bug — they report to a ViolationSink
// and keep observing. None allocates per event: their tables are sized at
// construction, and the FIFO links and starvation deadlines are queues in
// one vector each (VectorQueue) that keep their capacity once warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
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

/// A FIFO queue in one vector, consumed from a head index: popping is an
/// index bump, and the consumed prefix is dropped once it is at least as
/// long as the live part, so a queue that never drains (a busy link, a
/// stream of overlapping requests) stays within twice its live length and
/// each element moves at most once more. A drained queue keeps its capacity.
template <typename T>
class VectorQueue {
 public:
  [[nodiscard]] bool empty() const { return head_ == items_.size(); }
  [[nodiscard]] T* begin() { return items_.data() + head_; }
  [[nodiscard]] T* end() { return items_.data() + items_.size(); }
  [[nodiscard]] const T& front() const { return items_[head_]; }

  void push_back(const T& item) { items_.push_back(item); }
  void pop_front() {
    ++head_;
    compact();
  }
  /// Removes one live element (not necessarily the front).
  void erase(T* it) {
    items_.erase(items_.begin() + (it - items_.data()));
    compact();
  }

 private:
  void compact() {
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      const auto consumed = static_cast<std::ptrdiff_t>(head_);
      items_.erase(items_.begin(), items_.begin() + consumed);
      head_ = 0;
    }
  }

  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Per-resource mutual exclusion (§1 safety): at any instant each resource
/// is held by at most one site. Custody comes from kAcquire/kHold events and
/// ends at kRelease.
class MutualExclusionOracle {
 public:
  explicit MutualExclusionOracle(int num_resources);

  /// Stable name, also used as Violation::oracle.
  [[nodiscard]] static std::string_view name() { return "mutual-exclusion"; }
  /// Handles kHold, kAcquire and kRelease; ignores the rest.
  void on_event(const Event& event, ViolationSink& sink);

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
class DeadlockOracle {
 public:
  DeadlockOracle(int num_sites, int num_resources);

  [[nodiscard]] static std::string_view name() { return "deadlock"; }
  /// Handles kRequest, kHold, kAcquire and kRelease; ignores the rest.
  void on_event(const Event& event, ViolationSink& sink);
  /// End of run. `quiescent` is true when the event queue drained with no
  /// more work outstanding — the state in which "still waiting" means
  /// "waiting forever".
  void finalize(sim::SimTime now, bool quiescent, ViolationSink& sink);

 private:
  void check_cycle_from(SiteId start, sim::SimTime at, ViolationSink& sink);

  std::vector<ResourceSet> held_;    ///< per site: resources in custody
  std::vector<ResourceSet> wanted_;  ///< per site: outstanding request
  std::vector<bool> waiting_;        ///< per site: requested, not granted
  std::vector<std::string> reported_cycles_;  ///< dedup signatures
  // check_cycle_from's DFS scratch, reused across calls.
  std::vector<SiteId> path_;
  std::vector<std::uint8_t> state_;             ///< 0 new, 1 on path, 2 done
  std::vector<std::pair<SiteId, int>> frames_;  ///< (site, next candidate)
};

/// Starvation freedom / bounded waiting: no request may wait longer than a
/// configurable horizon. Deadlines are checked online as the clock passes
/// them (on_advance) and once more at finalize, so a starving site is
/// reported even when the run ends first. The horizon is a *budget*, not a
/// bound proven by the paper — pick it well above the workload's worst
/// honest waiting time (see DESIGN.md §11).
class StarvationOracle {
 public:
  StarvationOracle(int num_sites, sim::SimDuration horizon);

  [[nodiscard]] static std::string_view name() { return "starvation"; }
  /// Handles kRequest and kAcquire; ignores the rest.
  void on_event(const Event& event, ViolationSink& sink);
  /// Clock advanced to a new instant (before its events fire).
  void on_advance(sim::SimTime now, ViolationSink& sink);
  void finalize(sim::SimTime now, bool quiescent, ViolationSink& sink);

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
  VectorQueue<Deadline> deadlines_;  ///< pushed in nondecreasing
                                     ///< event-time order
};

/// Reliable-FIFO channel contract (§3.1) plus causal sanity: on every link,
/// messages deliver in send order — the sender's logical send clock (its own
/// vector-clock component, the only one the FIFO-per-link model constrains)
/// must strictly increase along delivered messages — and never before they
/// were sent. Full cross-link causal-delivery checking is deliberately out
/// of scope: with FIFO-only channels a multi-hop message can legitimately
/// outrun a direct one, so flagging it would reject schedules the paper's
/// model allows (see ROADMAP "Causal-delivery oracle").
class FifoOracle {
 public:
  explicit FifoOracle(int num_sites);

  [[nodiscard]] static std::string_view name() { return "fifo"; }
  /// Handles kSend and kDeliver; ignores the rest.
  void on_event(const Event& event, ViolationSink& sink);

 private:
  struct InFlight {
    std::int64_t msg_id;
    sim::SimTime sent_at;
    std::uint64_t sender_tick;  ///< sender's send clock at send time
  };
  /// One ordered link. Its queue allocates on the link's first send.
  struct Link {
    VectorQueue<InFlight> in_flight;
    std::uint64_t last_delivered_tick = 0;
  };

  int n_;
  std::vector<Link> links_;                ///< [src * n + dst]
  std::vector<std::uint64_t> send_clock_;  ///< per site
};

/// Message-complexity accounting (§5's msgs/CS metric as an oracle): counts
/// sends and CS entries, and — when a bound is configured — reports a
/// violation if the run's average messages per CS entry exceeds it. With
/// bound 0 it is pure accounting, exposed for reports and tests.
class ComplexityOracle {
 public:
  explicit ComplexityOracle(double max_messages_per_cs);

  [[nodiscard]] static std::string_view name() { return "message-complexity"; }
  /// Counts kSend and kAcquire; ignores the rest. Never reports here.
  void on_event(const Event& event, ViolationSink& /*sink*/) {
    if (event.type == EventType::kSend) {
      ++sends_;
    } else if (event.type == EventType::kAcquire) {
      ++acquires_;
    }
  }
  void finalize(sim::SimTime now, bool quiescent, ViolationSink& sink);

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
