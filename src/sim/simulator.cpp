#include "sim/simulator.hpp"

#include <numeric>
#include <utility>

#include "check/event.hpp"

namespace mra::sim {

std::uint64_t Simulator::run(SimTime until) {
  return hook_ == nullptr ? run_loop(until, {}) : run_loop_commuting(until, {});
}

std::uint64_t Simulator::run_until(PredicateRef pred, SimTime until) {
  return hook_ == nullptr ? run_loop(until, pred)
                          : run_loop_commuting(until, pred);
}

std::uint64_t Simulator::run_loop(SimTime until, PredicateRef pred) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  bool done = false;
  // One horizon check and one clock update per *instant*; the inner loop
  // then drains every event at that instant. Events scheduled for the
  // current instant by these callbacks have larger sequence numbers, so
  // the batch picks them up after the already-queued ones — the same
  // (time, seq) order the one-at-a-time loop produced. fire_next_at
  // reports the follow-up time (post-callback, so it is authoritative),
  // making steady state exactly one queue call per event.
  SimTime t = queue_.next_time();
  while (!done) {
    if (queue_.empty() || t > until) break;
    now_ = t;
    if (observer_ != nullptr) observer_->on_advance(t);
    SimTime next = t;
    while (next == t && queue_.fire_next_at(t, &next)) {
      ++fired;
      ++processed_;
      if (event_budget_ != 0 && fired > event_budget_) {
        throw EventBudgetExceeded(event_budget_);
      }
      if (stop_requested_ || (pred && pred())) {
        done = true;
        break;
      }
    }
    t = next;
  }
  // When stopping because the horizon was reached, advance the clock so that
  // metrics integrate exactly up to `until`.
  if (queue_.empty() || queue_.next_time() > until) {
    if (until != kTimeInfinity && until > now_) now_ = until;
  }
  return fired;
}

// ---------------------------------------------------------------------------
// Commutation (model-checking) mode. Events sit in the queue as usual, with
// their commute tag recorded per queue slot. The run loop drains an instant
// in rounds: pop everything queued at t, let the hook pick an order,
// execute; callbacks scheduling at t feed the next round. With the identity
// order this reproduces the plain loop's (time, seq) execution order exactly
// (newly scheduled same-instant events have larger seq, so they came after
// the already-queued batch either way).
// ---------------------------------------------------------------------------

EventId Simulator::schedule_tagged(SimTime at, int tag,
                                   EventQueue::Callback cb) {
  const EventId id = queue_.schedule(at, std::move(cb));
  const std::uint32_t slot = EventQueue::slot_of(id);
  if (slot >= slot_tags_.size()) slot_tags_.resize(queue_.capacity());
  slot_tags_[slot] = tag;
  return id;
}

bool Simulator::cancel_commuting(EventId id) {
  // Still queued, or already popped into the current round. The round is a
  // handful of events, and the checked protocols do not cancel on their hot
  // paths.
  if (queue_.cancel(id)) return true;
  for (RoundEvent& e : round_) {
    if (e.id == id && e.callback) {
      e.callback.reset();
      return true;
    }
  }
  return false;
}

std::uint64_t Simulator::run_loop_commuting(SimTime until, PredicateRef pred) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  bool done = false;
  SimTime t = queue_.next_time();
  while (!done && !queue_.empty() && t <= until) {
    now_ = t;
    if (observer_ != nullptr) observer_->on_advance(t);
    while (!done) {
      // The round: every event currently queued at instant t.
      round_.clear();
      round_tags_.clear();
      while (queue_.next_time() == t) {
        EventQueue::Fired f = queue_.pop();
        round_tags_.push_back(slot_tags_[EventQueue::slot_of(f.id)]);
        round_.push_back(RoundEvent{f.id, std::move(f.callback)});
      }
      if (round_.empty()) break;
      round_order_.resize(round_.size());
      std::iota(round_order_.begin(), round_order_.end(), std::size_t{0});
      if (round_.size() > 1) hook_->on_round(t, round_tags_, round_order_);
      for (std::size_t pos = 0; pos < round_order_.size(); ++pos) {
        RoundEvent& e = round_[round_order_[pos]];
        if (!e.callback) continue;  // cancelled earlier in this round
        EventQueue::Callback cb = std::move(e.callback);
        cb();
        ++fired;
        ++processed_;
        if (event_budget_ != 0 && fired > event_budget_) {
          throw EventBudgetExceeded(event_budget_);
        }
        if (stop_requested_ || (pred && pred())) {
          done = true;
          // Re-queue the unexecuted tail of the round (in the chosen order)
          // so a later run() still sees those events, as the plain loop
          // would after an interrupted batch.
          for (std::size_t rest = pos + 1; rest < round_order_.size(); ++rest) {
            const std::size_t i = round_order_[rest];
            if (!round_[i].callback) continue;
            schedule_tagged(t, round_tags_[i], std::move(round_[i].callback));
          }
          break;
        }
      }
    }
    t = queue_.next_time();
  }
  if (queue_.empty() || queue_.next_time() > until) {
    if (until != kTimeInfinity && until > now_) now_ = until;
  }
  return fired;
}

}  // namespace mra::sim
