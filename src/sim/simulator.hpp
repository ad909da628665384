// The discrete-event simulation engine that stands in for the paper's
// physical testbed (§5.1): protocols run unmodified on top of it while
// time, latency and load are simulated.
//
// Single-threaded and deterministic: events fire in (time, scheduling order)
// and all randomness comes from seeded RNGs owned by the caller. Parallelism
// in this project happens one level up (independent simulations run on a
// thread pool, see experiment/sweep.hpp), never inside one simulation.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace mra::check {
class Observer;
}  // namespace mra::check

namespace mra::sim {

/// Lets a model checker (src/check/dpor.*) reorder *commuting* same-instant
/// events. When attached, the run loop drains each instant in rounds: all
/// events already queued at the instant are popped from the event queue into
/// a batch, the hook picks an execution order, and events the batch
/// schedules for the same instant form the next round — so the identity
/// order reproduces the plain (time, seq) contract exactly.
class CommutationHook {
 public:
  virtual ~CommutationHook() = default;

  /// One round at instant `at`: `tags` lists the batch's commute tags in
  /// canonical (time, seq) order, `order` arrives as the identity
  /// permutation of [0, tags.size()) and may be permuted in place. Events
  /// with equal tags are dependent (same site); events with different tags
  /// commute. Tag kNoCommuteTag marks an event dependent with everything.
  virtual void on_round(SimTime at, const std::vector<int>& tags,
                        std::vector<std::size_t>& order) = 0;
};

/// Thrown when a simulation exceeds its event budget — in this project that
/// always means a protocol livelock (e.g. a message forwarded forever), so
/// tests convert it into a failure instead of hanging.
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("simulation exceeded event budget of " +
                           std::to_string(budget)) {}
};

/// Discrete-event simulator: a clock plus an event queue.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Events without a meaningful commute tag: dependent with everything, so
  /// an attached CommutationHook never reorders them across other events.
  static constexpr int kNoCommuteTag = -1;

  /// Schedules `cb` to run `delay` after now. Negative delays are clamped to
  /// zero (fires this instant, after already-queued same-instant events).
  EventId schedule_in(SimDuration delay, EventQueue::Callback cb) {
    return schedule_in(delay, kNoCommuteTag, std::move(cb));
  }

  /// Same, tagged for commutation analysis (see set_commutation_hook).
  EventId schedule_in(SimDuration delay, int commute_tag,
                      EventQueue::Callback cb) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, commute_tag, std::move(cb));
  }

  /// Schedules `cb` at absolute time `at` (clamped to now).
  EventId schedule_at(SimTime at, EventQueue::Callback cb) {
    return schedule_at(at, kNoCommuteTag, std::move(cb));
  }

  /// Same, tagged for commutation analysis. Without a hook the tag is
  /// ignored and this is the plain hot path (one predictable branch).
  EventId schedule_at(SimTime at, int commute_tag, EventQueue::Callback cb) {
    if (at < now_) at = now_;
    if (hook_ == nullptr) return queue_.schedule(at, std::move(cb));
    return schedule_tagged(at, commute_tag, std::move(cb));
  }

  /// Cancels a scheduled event; no-op if already fired.
  bool cancel(EventId id) {
    if (hook_ == nullptr) return queue_.cancel(id);
    return cancel_commuting(id);
  }

  /// Runs until the event queue drains or `until` is reached, whichever is
  /// first. Events scheduled exactly at `until` do fire. Returns the number
  /// of events processed by this call. Same-instant events are drained in
  /// one batch (one horizon check and clock update per instant) while
  /// preserving the (time, scheduling order) firing contract.
  std::uint64_t run(SimTime until = kTimeInfinity);

  /// Runs until the queue drains, `until` is reached, or `pred()` becomes
  /// true (checked after each event). The predicate is taken by non-owning
  /// reference (sim::PredicateRef) — it is evaluated once per event, and a
  /// type-erased std::function there would put an allocation-capable
  /// dispatch on the engine's hottest path.
  std::uint64_t run_until(PredicateRef pred, SimTime until = kTimeInfinity);

  /// Requests an orderly stop from inside an event callback.
  void stop() { stop_requested_ = true; }

  /// True when the pending-event set is empty.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Live (scheduled, not yet fired/cancelled) events — the obs-layer
  /// queue-depth gauge.
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  /// Slots the queue slab has ever allocated: a memory high-water mark in
  /// events (each slot is one cache line), not a live count.
  [[nodiscard]] std::size_t queue_capacity() const {
    return queue_.capacity();
  }

  /// Total events processed over the simulator's lifetime.
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Caps the total number of events one run() may process (livelock guard).
  /// 0 disables the cap.
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

  /// Attaches a conformance observer (src/check/): Observer::on_advance fires
  /// once per distinct instant, before that instant's events. Null detaches.
  /// Costs one predictable branch per instant when detached.
  void set_observer(check::Observer* observer) { observer_ = observer; }
  [[nodiscard]] check::Observer* observer() const { return observer_; }

  /// Attaches a commutation hook (model-checking mode). Must be called
  /// before any event is scheduled: already-queued events would carry no
  /// commute tag. Null detaches (same restriction). The unhooked scheduling
  /// and run-loop paths are unchanged.
  void set_commutation_hook(CommutationHook* hook) {
    assert(queue_.empty() && "attach the commutation hook before scheduling");
    hook_ = hook;
  }
  [[nodiscard]] CommutationHook* commutation_hook() const { return hook_; }

 private:
  /// An event popped into the current commutation round. Its callback is
  /// moved out just before it runs, so an empty one marks an event already
  /// fired or cancelled.
  struct RoundEvent {
    EventId id;
    EventQueue::Callback callback;
  };

  std::uint64_t run_loop(SimTime until, PredicateRef pred);
  std::uint64_t run_loop_commuting(SimTime until, PredicateRef pred);
  EventId schedule_tagged(SimTime at, int tag, EventQueue::Callback cb);
  bool cancel_commuting(EventId id);

  EventQueue queue_;
  check::Observer* observer_ = nullptr;
  CommutationHook* hook_ = nullptr;
  SimTime now_ = kTimeZero;
  std::uint64_t processed_ = 0;
  std::uint64_t event_budget_ = 0;
  bool stop_requested_ = false;
  // Commutation mode only, kept behind the plain run loop's fields. The tag
  // of each queued event, indexed by its queue slot (EventQueue::slot_of),
  // and the current round: its events, their tags (the hook's input) and
  // the order the hook chose.
  std::vector<int> slot_tags_;
  std::vector<RoundEvent> round_;
  std::vector<int> round_tags_;
  std::vector<std::size_t> round_order_;
};

}  // namespace mra::sim
