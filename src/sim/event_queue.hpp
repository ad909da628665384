// A deterministic pending-event set for discrete-event simulation — the
// foundation that lets the §5 evaluation be replayed bit-identically from a
// seed.
//
// Events are ordered by (time, sequence number): two events scheduled for the
// same instant fire in scheduling order. This tie-break is what makes whole
// simulations reproducible, so it is part of the contract, not an
// implementation detail.
//
// Implementation (see DESIGN.md §9): event records live in a slab of
// recycled slots; the priority structure is a 4-ary min-heap of 16-byte POD
// entries carrying the (time, seq) sort key plus the slot index. Sift
// operations therefore compare and move PODs in contiguous cache-aligned
// memory — no slab dereference per comparison, no std::function move
// constructor per swap — and each level's 4-child group is one cache line.
// A free list recycles the slot of each fired event, so memory is bounded
// by the peak number of outstanding events, not by the total ever
// scheduled. Events are only scheduled and fired: the paper's system model
// (§3.1) has reliable links and no timeouts, so none is ever withdrawn.
//
// Beside the heap sits an in-order lane for streams whose times rarely
// decrease (message deliveries at now + latency, via schedule_in_order):
// an entry not earlier than the lane's last one is appended in O(1), any
// other goes to the heap, and every pop takes the smaller of the heap root
// and the lane head. Both hold the same (time, seq) entries drawn from one
// sequence counter, so the firing order is the heap-only order for every
// input (DESIGN.md §9, "In-order lane").
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace mra::sim {

/// Min-ordered pending-event set keyed by (time, insertion sequence).
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Schedules `cb` at absolute time `at` and returns the slab slot it
  /// occupies until it fires, in [0, capacity()). Slots are reused, so
  /// per-event side data a caller keeps in a flat array indexed by slot
  /// (the simulator's commute tags) stays bounded by the peak number of
  /// outstanding events. Taking the callback by rvalue reference moves it
  /// once, into its slot: each move is an indirect call, and this is the
  /// engine's hottest path.
  std::uint32_t schedule(SimTime at, Callback&& cb);

  /// Same contract as schedule(), for streams whose times rarely decrease:
  /// appended to the in-order lane in O(1) when `at` is not before the
  /// lane's last entry, otherwise scheduled on the heap. Either way the
  /// event fires exactly where schedule() would have fired it.
  void schedule_in_order(SimTime at, Callback&& cb);

  /// True when no event is pending.
  [[nodiscard]] bool empty() const { return heap_.empty() && lane_empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const {
    return heap_.size() + (lane_.size() - lane_head_);
  }

  /// Time of the earliest pending event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Pops and returns the earliest event; `slot` is the one schedule()
  /// returned for it. Precondition: !empty().
  struct Fired {
    SimTime time;
    std::uint32_t slot;
    Callback callback;
  };
  Fired pop();

  /// Fires the earliest event in place if it is scheduled exactly at `t`,
  /// then stores the time of the earliest remaining event into `next`
  /// (kTimeInfinity when none). `next` is computed *after* the callback
  /// ran, so events the callback scheduled are already reflected — the
  /// simulator's run loop needs exactly one queue call per event, and the
  /// same-instant batch keeps draining through the `next == t` condition.
  /// When nothing fires at `t`, returns false and still reports the
  /// earliest time.
  bool fire_next_at(SimTime t, SimTime* next);

  /// Total number of events ever scheduled (for stats / tests).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

  /// Number of event-record slots ever allocated — the queue's memory
  /// high-water mark. Bounded by the peak number of outstanding events
  /// (heap and lane alike), not by total_scheduled(): the regression test
  /// schedules and pops a million events and checks this stays exact.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  /// Cold event state: the callback, or the free-list link once it fired.
  /// Touched once at schedule and once at pop — never during sifts. Exactly
  /// one cache line, so every slab access costs a single line fill.
  struct alignas(64) Slot {
    Callback callback;
    std::uint32_t next_free = 0;  ///< free-list link while unused
  };
  static_assert(sizeof(Slot) == 64, "Slot must stay one cache line");

  /// Hot heap entry, 16 bytes: the full sort key travels with the slot
  /// index so sift comparisons stay inside the contiguous heap array, and a
  /// 4-child group spans a single cache line. `key` packs the insertion
  /// sequence (high 40 bits) over the slot index (low 24 bits); the
  /// sequence alone decides same-time ordering because it is unique, so
  /// comparing the packed word is exactly the (time, seq) contract. The
  /// in-order lane holds the same entries.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key & kSlotMask);
    }
    [[nodiscard]] bool before(const HeapEntry& other) const {
      if (time != other.time) return time < other.time;
      return key < other.key;
    }
  };

  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// seq must fit the remaining 40 bits: ~1.1e12 events, two orders of
  /// magnitude beyond the longest sweep; schedule() enforces it.
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);

  /// Contiguous HeapEntry array whose element 1 sits on a 64-byte boundary,
  /// so every 4-child group (indices 4i+1 … 4i+4, 64 bytes) occupies exactly
  /// one cache line — the sift pointer-chase then costs one line per level.
  /// std::vector cannot promise that: operator new only guarantees 16-byte
  /// alignment, which leaves child groups straddling two lines.
  class HeapStorage {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    HeapEntry& operator[](std::size_t i) { return data_[i]; }
    const HeapEntry& operator[](std::size_t i) const { return data_[i]; }
    [[nodiscard]] const HeapEntry& back() const { return data_[size_ - 1]; }

    void push_back(const HeapEntry& entry) {
      if (size_ == capacity_) grow();
      data_[size_++] = entry;
    }
    void pop_back() { --size_; }

   private:
    static constexpr std::size_t kLine = 64;

    void grow() {
      const std::size_t new_capacity = capacity_ == 0 ? 256 : capacity_ * 2;
      // Over-allocate one line plus the 48-byte lead-in for element 0, then
      // place element 1 on the first line boundary past the lead-in.
      auto raw = std::make_unique_for_overwrite<std::byte[]>(
          new_capacity * sizeof(HeapEntry) + kLine + sizeof(HeapEntry) * 3);
      auto base = reinterpret_cast<std::uintptr_t>(raw.get());
      const std::uintptr_t aligned = (base + kLine - 1) & ~(kLine - 1);
      auto* data =
          reinterpret_cast<HeapEntry*>(aligned + kLine - sizeof(HeapEntry));
      if (size_ != 0) std::memcpy(data, data_, size_ * sizeof(HeapEntry));
      raw_ = std::move(raw);
      data_ = data;
      capacity_ = new_capacity;
    }

    std::unique_ptr<std::byte[]> raw_;
    HeapEntry* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(kSlotMask);
  /// Heap arity: 4 children = one 64-byte cache line per level. Measured
  /// against 8-ary on the timer benchmark the repository used to carry: the
  /// shallower miss chain of 8-ary loses to 4-ary's one-line child groups
  /// plus speculative group prefetching in min_child(). mra_bench's
  /// sim.ns_per_event tracks it now.
  static constexpr std::size_t kArity = 4;

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Takes a slot and the next sequence number for a new event.
  HeapEntry admit(SimTime at, Callback&& cb);

  void sift_up(std::size_t pos);
  void remove_root();
  [[nodiscard]] std::size_t min_child(std::size_t pos) const;

  [[nodiscard]] bool lane_empty() const { return lane_head_ == lane_.size(); }
  void pop_lane();
  /// True when the lane holds the earliest entry: its head precedes the
  /// heap root, or the heap is empty.
  [[nodiscard]] bool lane_first() const {
    return !lane_empty() &&
           (heap_.empty() || lane_[lane_head_].before(heap_[0]));
  }
  /// Retires `top`'s slot (already removed from the heap or the lane) and
  /// hands its callback out.
  Fired take(const HeapEntry& top);

  std::vector<Slot> slots_;  ///< the slab; grows to peak outstanding
  HeapStorage heap_;         ///< 4-ary min-heap, child groups line-aligned
  /// The in-order lane: entries in (time, seq) order, consumed from
  /// lane_head_. The consumed prefix is dropped once it is as long as the
  /// live part, so the array holds at most twice the lane's live length.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
};

}  // namespace mra::sim
