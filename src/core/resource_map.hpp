// Resource-indexed sparse map for per-site protocol state (DESIGN.md §13).
//
// FlatMap finds a key by binary search and stores it next to its value.
// LASS's per-site held tokens, departed token ids and request history are
// keyed by a ResourceId from the small dense universe [0, M), so this map
// replaces the search by a bitmap: membership is one bit, and a value's
// index in the contiguous, ascending-key value array is the number of set
// bits below its key (a popcount rank — one or two popcount instructions at
// the paper's M = 80; O(M/64) in general). No key is stored: the bitmap is
// the key set, which keeps the map smaller than a FlatMap of the same values.
//
// One value lives inline (a site's maps are usually empty or hold a single
// live resource); more spill through the shared container pool. The bitmap
// is a 24-byte key set: two words inline cover 128 keys — M = 80 fits — and
// the first larger key moves the words to a container-pool block, as
// ResourceSet moves a universe above 128 to the heap. Insert and erase shift
// the values above the key, as FlatMap's do; iteration is ascending-key
// order, FlatMap's and std::map's.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/small_vector.hpp"
#include "core/types.hpp"

namespace mra::core {

template <typename V>
class ResourceMap {
 public:
  ResourceMap() = default;
  // A site's maps never move or copy.
  ResourceMap(const ResourceMap&) = delete;
  ResourceMap& operator=(const ResourceMap&) = delete;
  ~ResourceMap() {
    if (on_heap()) container_spill_deallocate(heap_, num_words_ * kWordBytes);
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }

  [[nodiscard]] bool contains(ResourceId r) const {
    assert(r >= 0);
    const std::size_t wi = word_index(r);
    return wi < num_words_ && (words()[wi] & bit(r)) != 0;
  }

  /// The value stored under r, or nullptr.
  [[nodiscard]] V* find(ResourceId r) {
    return contains(r) ? &values_[rank(r)] : nullptr;
  }
  [[nodiscard]] const V* find(ResourceId r) const {
    return contains(r) ? &values_[rank(r)] : nullptr;
  }

  /// Constructs V(args...) under r if absent; returns {value, inserted}.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(ResourceId r, Args&&... args) {
    if (V* v = find(r)) return {v, false};
    return {insert_absent(r, std::forward<Args>(args)...), true};
  }

  /// std::map semantics: default-constructs the value on first access.
  V& operator[](ResourceId r) { return *try_emplace(r).first; }

  /// Removes r's value; returns the number of values removed (0 or 1).
  std::size_t erase(ResourceId r) {
    if (!contains(r)) return 0;
    values_.erase(values_.begin() + rank(r));
    words()[word_index(r)] &= ~bit(r);
    return 1;
  }

  void clear() {
    values_.clear();
    std::fill_n(words(), num_words_, std::uint64_t{0});
  }

  /// Calls fn(key, value) for every entry in ascending-key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::size_t idx = 0;
    const std::uint64_t* words = this->words();
    for (std::size_t wi = 0; wi < num_words_; ++wi) {
      for (std::uint64_t w = words[wi]; w != 0; w &= w - 1) {
        const auto r =
            static_cast<ResourceId>(wi * 64 + static_cast<std::size_t>(
                                                  std::countr_zero(w)));
        fn(r, values_[idx++]);
      }
    }
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;
  static constexpr std::size_t kWordBytes = sizeof(std::uint64_t);

  static std::size_t word_index(ResourceId r) {
    return static_cast<std::size_t>(r) >> 6;
  }
  static std::uint64_t bit(ResourceId r) { return 1ULL << (r & 63); }

  [[nodiscard]] bool on_heap() const { return num_words_ > kInlineWords; }
  [[nodiscard]] std::uint64_t* words() { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const std::uint64_t* words() const {
    return on_heap() ? heap_ : inline_;
  }

  /// Widens the key set to `count` words (> num_words_), zero-filled.
  void grow_words(std::size_t count) {
    auto* fresh = static_cast<std::uint64_t*>(
        container_spill_allocate(count * kWordBytes));
    std::copy_n(words(), num_words_, fresh);
    std::fill(fresh + num_words_, fresh + count, std::uint64_t{0});
    if (on_heap()) container_spill_deallocate(heap_, num_words_ * kWordBytes);
    heap_ = fresh;
    num_words_ = static_cast<std::uint32_t>(count);
  }

  template <typename... Args>
  V* insert_absent(ResourceId r, Args&&... args) {
    assert(r >= 0);
    const std::size_t wi = word_index(r);
    if (wi >= num_words_) grow_words(wi + 1);
    const std::size_t idx = rank(r);
    words()[wi] |= bit(r);
    return values_.insert(values_.begin() + idx,
                          V(std::forward<Args>(args)...));
  }

  /// Number of keys below r. Precondition: r's word exists.
  [[nodiscard]] std::size_t rank(ResourceId r) const {
    const std::uint64_t* words = this->words();
    const std::size_t wi = word_index(r);
    std::size_t n = static_cast<std::size_t>(
        std::popcount(words[wi] & (bit(r) - 1)));
    for (std::size_t i = 0; i < wi; ++i) {
      n += static_cast<std::size_t>(std::popcount(words[i]));
    }
    return n;
  }

  union {
    std::uint64_t inline_[kInlineWords] = {0, 0};  ///< num_words_ == 2
    std::uint64_t* heap_;  ///< num_words_ > 2: a container-pool block
  };
  std::uint32_t num_words_ = kInlineWords;
  SmallVector<V, 1> values_;
};

}  // namespace mra::core
