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
// A free list plus generation-tagged ids gives O(1) schedule/cancel with
// memory bounded by the peak number of outstanding events — not by the
// total ever scheduled, which is what the old tombstone set grew with.
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

/// Identifier of a scheduled event; usable to cancel it. Packs the slab slot
/// index (low 24 bits) with the slot's generation tag (high 40 bits), so a
/// stale id — already fired, already cancelled, or its slot since recycled —
/// is recognised in O(1) without remembering every id ever issued. The tag
/// cannot wrap: a slot's recycle count is bounded by total_scheduled(),
/// which schedule() caps below 2^40.
using EventId = std::uint64_t;

/// Min-ordered pending-event set keyed by (time, insertion sequence).
///
/// Cancellation is O(1): the slot is marked dead and its callback destroyed
/// immediately; the stale heap or lane entry is dropped when it surfaces,
/// or swept out wholesale when dead entries pass a quarter of the live
/// count (amortised O(1) per cancel).
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Schedules `cb` at absolute time `at`. Returns an id usable with cancel().
  /// Taking the callback by rvalue reference moves it once, into its slot:
  /// each move is an indirect call, and this is the engine's hottest path.
  EventId schedule(SimTime at, Callback&& cb);

  /// Same contract as schedule(), for streams whose times rarely decrease:
  /// appended to the in-order lane in O(1) when `at` is not before the
  /// lane's last entry, otherwise scheduled on the heap. Either way the
  /// event fires exactly where schedule() would have fired it.
  EventId schedule_in_order(SimTime at, Callback&& cb);

  /// Cancels a previously scheduled event. Cancelling an already-fired or
  /// unknown id is a harmless no-op (returns false).
  bool cancel(EventId id);

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Pops and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback callback;
  };
  Fired pop();

  /// Fires the earliest live event in place if it is scheduled exactly at
  /// `t`, then stores the time of the earliest remaining live event into
  /// `next` (kTimeInfinity when none). `next` is computed *after* the
  /// callback ran, so events the callback scheduled or cancelled are
  /// already reflected — the simulator's run loop needs exactly one queue
  /// call per event, and the same-instant batch keeps draining through the
  /// `next == t` condition. When nothing fires at `t`, returns false and
  /// still reports the earliest live time.
  bool fire_next_at(SimTime t, SimTime* next);

  /// The slab slot an id names, in [0, capacity()). A slot is reused once
  /// its event fires or is cancelled, so per-event side data a caller keeps
  /// in a flat array indexed by slot (the simulator's commute tags) stays
  /// bounded by the peak number of outstanding events.
  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & kSlotMask);
  }

  /// Total number of events ever scheduled (for stats / tests).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

  /// Number of event-record slots ever allocated — the queue's memory
  /// high-water mark. Bounded by the peak number of outstanding events
  /// (live + not-yet-swept cancelled, heap and lane alike), not by
  /// total_scheduled(): the regression test schedules and cancels a million
  /// events and checks this stays small.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };

  /// Cold event state: the callback plus lifecycle bookkeeping. Touched
  /// once at schedule, once at pop/cancel — never during sifts. Exactly one
  /// cache line, so every slab access costs a single line fill. The
  /// generation is 64-bit so its 40 usable id bits never wrap within the
  /// sequence-space envelope.
  struct alignas(64) Slot {
    Callback callback;
    std::uint64_t generation = 0;
    std::uint32_t next_free = 0;  ///< free-list link while kFree
    SlotState state = SlotState::kFree;
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
    [[nodiscard]] HeapEntry* begin() { return data_; }
    [[nodiscard]] HeapEntry* end() { return data_ + size_; }

    void push_back(const HeapEntry& entry) {
      if (size_ == capacity_) grow();
      data_[size_++] = entry;
    }
    void pop_back() { --size_; }
    /// Shrink only (compaction); never reallocates.
    void resize(std::size_t n) { size_ = n; }

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
  /// sim.ns_per_event, which schedules but never cancels, tracks it now.
  static constexpr std::size_t kArity = 4;
  /// Dead heap and lane entries tolerated beyond the live count before a
  /// sweep.
  static constexpr std::size_t kCompactSlack = 64;

  static EventId make_id(std::uint32_t index, std::uint64_t generation) {
    return (generation << kSlotBits) | index;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Takes a slot and the next sequence number for a new live event.
  HeapEntry admit(SimTime at, Callback&& cb);

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void remove_root();
  [[nodiscard]] std::size_t min_child(std::size_t pos) const;

  [[nodiscard]] bool lane_empty() const { return lane_head_ == lane_.size(); }
  void pop_lane();
  /// True when the lane holds the earliest entry: its head precedes the
  /// heap root, or the heap is empty. Call after drop_cancelled().
  [[nodiscard]] bool lane_first() const {
    return !lane_empty() &&
           (heap_.empty() || lane_[lane_head_].before(heap_[0]));
  }
  /// Time of the earliest entry; call after drop_cancelled().
  [[nodiscard]] SimTime earliest_time() const;

  /// Drops dead entries from the heap root and the lane head. Nothing but
  /// the tests cancels events, so the common case is one counter test.
  void drop_cancelled() {
    if (cancelled_entries_ != 0) drop_cancelled_tops();
  }
  void drop_cancelled_tops();
  void compact();
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
  std::size_t live_count_ = 0;
  std::size_t cancelled_entries_ = 0;  ///< dead entries in heap or lane
};

}  // namespace mra::sim
