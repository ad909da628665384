#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace mra::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  if (slots_.size() >= kNoSlot) {
    throw std::length_error("EventQueue: more than 2^24 outstanding events");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.state = SlotState::kFree;
  slot.next_free = free_head_;
  free_head_ = index;
}

EventQueue::HeapEntry EventQueue::admit(SimTime at, Callback&& cb) {
  if (next_seq_ >= kMaxSeq) {
    throw std::length_error("EventQueue: sequence space exhausted");
  }
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.callback = std::move(cb);
  slot.state = SlotState::kLive;
  ++live_count_;
  return HeapEntry{at, (next_seq_++ << kSlotBits) | index};
}

EventId EventQueue::schedule(SimTime at, Callback&& cb) {
  const HeapEntry entry = admit(at, std::move(cb));
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
  return make_id(entry.slot(), slots_[entry.slot()].generation);
}

EventId EventQueue::schedule_in_order(SimTime at, Callback&& cb) {
  const HeapEntry entry = admit(at, std::move(cb));
  // Appending keeps the lane sorted by (time, seq): the new entry is not
  // earlier than the last one and its sequence number is larger. Anything
  // earlier takes the heap, so the lane never needs an insertion.
  if (lane_empty() || at >= lane_.back().time) {
    lane_.push_back(entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  return make_id(entry.slot(), slots_[entry.slot()].generation);
}

bool EventQueue::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & kSlotMask);
  const std::uint64_t generation = id >> kSlotBits;
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.state != SlotState::kLive || slot.generation != generation) {
    return false;
  }
  slot.state = SlotState::kCancelled;
  ++slot.generation;  // stale ids (including this one, reused) die here
  slot.callback.reset();
  assert(live_count_ > 0);
  --live_count_;
  ++cancelled_entries_;
  // Keep dead entries from accumulating on workloads that cancel far from
  // the top: past a quarter of the live count, sweep and rebuild in O(n) —
  // amortised O(1) per cancel, and slab growth stays bounded by the peak
  // outstanding count. The live/4 ratio measured fastest on the timer
  // benchmark with cancel churn that the repository used to carry (deeper
  // staleness inflates sift depth, tighter sweeping pays more rebuild
  // traffic). Only tests/test_sim.cpp cancels today, so nothing re-measures
  // it.
  if (cancelled_entries_ > live_count_ / 4 + kCompactSlack) compact();
  return true;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!moving.before(heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = moving;
}

std::size_t EventQueue::min_child(std::size_t pos) const {
  const std::size_t n = heap_.size();
  const std::size_t first_child = kArity * pos + 1;
  const std::size_t last_child =
      first_child + kArity <= n ? first_child + kArity : n;
  std::size_t best = first_child;
  for (std::size_t c = first_child + 1; c < last_child; ++c) {
    if (heap_[c].before(heap_[best])) best = c;
  }
  // The sift is a pointer-chase: level k+1's child group cannot be fetched
  // until `best` is known. Prefetching every candidate group overlaps the
  // next level's memory latency with this level's comparisons (3 of the 4
  // lines are wasted bandwidth, which is the cheaper currency here). The
  // per-child bound keeps even the formed address inside the array.
  for (std::size_t c = first_child; c < last_child; ++c) {
    const std::size_t grandchild = kArity * c + 1;
    if (grandchild < n) __builtin_prefetch(&heap_[grandchild]);
  }
  return best;
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t n = heap_.size();
  const HeapEntry moving = heap_[pos];
  while (kArity * pos + 1 < n) {
    const std::size_t best = min_child(pos);
    if (!heap_[best].before(moving)) break;
    heap_[pos] = heap_[best];
    pos = best;
  }
  heap_[pos] = moving;
}

void EventQueue::remove_root() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Bottom-up removal: sink the root hole to a leaf along min-child links
  // (no comparison against `last` — it is a recent, usually far-future
  // event that would sink all the way anyway), then bubble `last` up from
  // the leaf, which almost always terminates immediately.
  std::size_t hole = 0;
  while (kArity * hole + 1 < n) {
    const std::size_t best = min_child(hole);
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  sift_up(hole);
}

void EventQueue::pop_lane() {
  ++lane_head_;
  // check::VectorQueue's policy: drop the consumed prefix once it is as
  // long as the live part (all of it when the lane drains), so each entry
  // moves at most once more.
  if (2 * lane_head_ >= lane_.size()) {
    lane_.erase(lane_.begin(),
                lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
    lane_head_ = 0;
  }
}

void EventQueue::drop_cancelled_tops() {
  while (!heap_.empty() &&
         slots_[heap_[0].slot()].state == SlotState::kCancelled) {
    const std::uint32_t index = heap_[0].slot();
    remove_root();
    release_slot(index);
    assert(cancelled_entries_ > 0);
    --cancelled_entries_;
  }
  while (!lane_empty() &&
         slots_[lane_[lane_head_].slot()].state == SlotState::kCancelled) {
    const std::uint32_t index = lane_[lane_head_].slot();
    pop_lane();
    release_slot(index);
    assert(cancelled_entries_ > 0);
    --cancelled_entries_;
  }
}

void EventQueue::compact() {
  std::size_t out = 0;
  for (const HeapEntry& entry : heap_) {
    if (slots_[entry.slot()].state == SlotState::kLive) {
      heap_[out++] = entry;
    } else {
      release_slot(entry.slot());
    }
  }
  heap_.resize(out);
  // Floyd heapify. The (time, seq) order is a strict total order, so the
  // rebuilt heap pops in exactly the same sequence as the lazy one would —
  // compaction is invisible to the determinism contract.
  if (out > 1) {
    for (std::size_t i = (out - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
  // The lane is filtered in place, consumed prefix included; a subsequence
  // of a sorted run is still sorted.
  out = 0;
  for (std::size_t i = lane_head_; i < lane_.size(); ++i) {
    if (slots_[lane_[i].slot()].state == SlotState::kLive) {
      lane_[out++] = lane_[i];
    } else {
      release_slot(lane_[i].slot());
    }
  }
  lane_.resize(out);
  lane_head_ = 0;
  cancelled_entries_ = 0;
}

SimTime EventQueue::earliest_time() const {
  if (lane_first()) return lane_[lane_head_].time;
  return heap_.empty() ? kTimeInfinity : heap_[0].time;
}

SimTime EventQueue::next_time() const {
  // Dropping dead top entries does not change observable state, so the
  // const_cast cleanup is safe (same reasoning as the previous
  // tombstone-based implementation).
  auto* self = const_cast<EventQueue*>(this);
  self->drop_cancelled();
  return earliest_time();
}

EventQueue::Fired EventQueue::take(const HeapEntry& top) {
  const std::uint32_t index = top.slot();
  Slot& slot = slots_[index];
  Fired fired{top.time, make_id(index, slot.generation),
              std::move(slot.callback)};
  ++slot.generation;  // cancel-after-fire becomes a stale-id no-op
  release_slot(index);
  assert(live_count_ > 0);
  --live_count_;
  return fired;
}

EventQueue::Fired EventQueue::pop() {
  drop_cancelled();
  assert(!empty() && "pop() on empty EventQueue");
  if (lane_first()) {
    const HeapEntry top = lane_[lane_head_];
    pop_lane();
    return take(top);
  }
  const HeapEntry top = heap_[0];
  remove_root();
  return take(top);
}

bool EventQueue::fire_next_at(SimTime t, SimTime* next) {
  drop_cancelled();
  const bool from_lane = lane_first();
  if (!from_lane && heap_.empty()) {
    *next = kTimeInfinity;
    return false;
  }
  const HeapEntry top = from_lane ? lane_[lane_head_] : heap_[0];
  if (top.time != t) {
    *next = top.time;
    return false;
  }
  // Overlap the slab line fill for the popped slot with the removal walk
  // (the heap's hole walk; a lane pop is an index bump).
  __builtin_prefetch(&slots_[top.slot()]);
  if (from_lane) {
    pop_lane();
  } else {
    remove_root();
  }
  Fired fired = take(top);
  fired.callback();
  // Reported after the callback ran: newly scheduled or cancelled events
  // are reflected, so the caller can trust it without a next_time() pass.
  drop_cancelled();
  *next = earliest_time();
  return true;
}

}  // namespace mra::sim
