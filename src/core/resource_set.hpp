// A set of resource ids over a dense universe [0, M) — the paper's request
// sets D_i ⊆ R (§3.2) and the token sets TOwned/TRequired of Annex A.
//
// Implemented as a bitset with word-level operations: subset tests and
// unions are the hot path of every allocation protocol here
// (TRequired ⊆ TOwned is evaluated on every token arrival). Universes up to
// 128 ids (two words; the paper's M = 80) live inline in the 24-byte object,
// so copying a request set never allocates; larger universes keep their
// words on the heap (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/types.hpp"

namespace mra {

class ResourceSet {
 public:
  ResourceSet() = default;

  /// Empty set over universe size `universe`; a negative size throws
  /// std::invalid_argument.
  explicit ResourceSet(ResourceId universe) : universe_(universe) {
    if (universe < 0) throw_negative_universe(universe);
    if (on_heap()) heap_ = new std::uint64_t[num_words()]();
  }

  /// Set containing exactly the given ids.
  ResourceSet(ResourceId universe, std::initializer_list<ResourceId> ids)
      : ResourceSet(universe) {
    for (ResourceId r : ids) insert(r);
  }

  ResourceSet(const ResourceSet& other)
      : universe_(other.universe_), count_(other.count_) {
    if (on_heap()) {
      heap_ = new std::uint64_t[num_words()];
      copy_words(other);
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
  }

  /// Leaves `other` the empty set over universe 0.
  ResourceSet(ResourceSet&& other) noexcept
      : universe_(other.universe_), count_(other.count_) {
    take_words(other);
  }

  ResourceSet& operator=(const ResourceSet& other) {
    if (universe_ != other.universe_) return *this = ResourceSet(other);
    copy_words(other);
    count_ = other.count_;
    return *this;
  }

  ResourceSet& operator=(ResourceSet&& other) noexcept {
    if (this != &other) {
      free_heap();
      universe_ = other.universe_;
      count_ = other.count_;
      take_words(other);
    }
    return *this;
  }

  ~ResourceSet() { free_heap(); }

  [[nodiscard]] ResourceId universe_size() const { return universe_; }

  void insert(ResourceId r) {
    check(r);
    auto& w = words()[static_cast<std::size_t>(r) >> 6];
    const std::uint64_t bit = 1ULL << (r & 63);
    if ((w & bit) == 0) {
      w |= bit;
      ++count_;
    }
  }

  void erase(ResourceId r) {
    check(r);
    auto& w = words()[static_cast<std::size_t>(r) >> 6];
    const std::uint64_t bit = 1ULL << (r & 63);
    if ((w & bit) != 0) {
      w &= ~bit;
      --count_;
    }
  }

  [[nodiscard]] bool contains(ResourceId r) const {
    if (r < 0 || r >= universe_) return false;
    return (words()[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1ULL;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  void clear() {
    std::uint64_t* w = words();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] = 0;
    count_ = 0;
  }

  /// True iff *this ⊆ other. Sets must share a universe.
  [[nodiscard]] bool subset_of(const ResourceSet& other) const;

  /// True iff the intersection is non-empty (i.e. two requests conflict).
  [[nodiscard]] bool intersects(const ResourceSet& other) const;

  /// In-place union / difference.
  ResourceSet& operator|=(const ResourceSet& other);
  ResourceSet& operator-=(const ResourceSet& other);

  [[nodiscard]] ResourceSet set_union(const ResourceSet& other) const;
  [[nodiscard]] ResourceSet set_difference(const ResourceSet& other) const;
  [[nodiscard]] ResourceSet set_intersection(const ResourceSet& other) const;

  /// Same universe and same members.
  bool operator==(const ResourceSet& other) const;

  /// Materialises the members in increasing order.
  [[nodiscard]] std::vector<ResourceId> to_vector() const;

  /// Iterates members in increasing id order without materialising.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = this->words();
    for (std::size_t wi = 0; wi < num_words(); ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(static_cast<ResourceId>(wi * 64 + static_cast<std::size_t>(bit)));
        w &= w - 1;
      }
    }
  }

 private:
  static constexpr ResourceId kInlineUniverse = 128;

  [[noreturn]] static void throw_negative_universe(ResourceId universe);
  void check(ResourceId r) const;
  void require_same_universe(const ResourceSet& other) const;

  [[nodiscard]] bool on_heap() const { return universe_ > kInlineUniverse; }
  [[nodiscard]] std::size_t num_words() const {
    return (static_cast<std::size_t>(universe_) + 63) / 64;
  }
  [[nodiscard]] std::uint64_t* words() { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const std::uint64_t* words() const {
    return on_heap() ? heap_ : inline_;
  }

  /// Precondition: same universe as `other`.
  void copy_words(const ResourceSet& other) {
    const std::uint64_t* src = other.words();
    std::uint64_t* dst = words();
    for (std::size_t i = 0; i < num_words(); ++i) dst[i] = src[i];
  }
  /// Takes `other`'s words (this already carries its universe) and leaves
  /// it the empty set over universe 0.
  void take_words(ResourceSet& other) noexcept {
    if (on_heap()) {
      heap_ = other.heap_;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    other.universe_ = 0;
    other.count_ = 0;
    other.inline_[0] = 0;
    other.inline_[1] = 0;
  }
  void free_heap() {
    if (on_heap()) delete[] heap_;
  }

  ResourceId universe_ = 0;
  std::uint32_t count_ = 0;
  union {
    std::uint64_t inline_[2] = {0, 0};  ///< universe <= kInlineUniverse
    std::uint64_t* heap_;               ///< num_words() words otherwise
  };
};

}  // namespace mra
