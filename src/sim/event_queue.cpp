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
  slots_[index].next_free = free_head_;
  free_head_ = index;
}

EventQueue::HeapEntry EventQueue::admit(SimTime at, Callback&& cb) {
  if (next_seq_ >= kMaxSeq) {
    throw std::length_error("EventQueue: sequence space exhausted");
  }
  const std::uint32_t index = acquire_slot();
  slots_[index].callback = std::move(cb);
  return HeapEntry{at, (next_seq_++ << kSlotBits) | index};
}

std::uint32_t EventQueue::schedule(SimTime at, Callback&& cb) {
  const HeapEntry entry = admit(at, std::move(cb));
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
  return entry.slot();
}

void EventQueue::schedule_in_order(SimTime at, Callback&& cb) {
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

SimTime EventQueue::next_time() const {
  if (lane_first()) return lane_[lane_head_].time;
  return heap_.empty() ? kTimeInfinity : heap_[0].time;
}

EventQueue::Fired EventQueue::take(const HeapEntry& top) {
  const std::uint32_t index = top.slot();
  Fired fired{top.time, index, std::move(slots_[index].callback)};
  release_slot(index);
  return fired;
}

EventQueue::Fired EventQueue::pop() {
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
  // Reported after the callback ran: newly scheduled events are
  // reflected, so the caller can trust it without a next_time() pass.
  *next = next_time();
  return true;
}

}  // namespace mra::sim
