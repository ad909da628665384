// Sorted flat map for sparse per-site protocol state (DESIGN.md §13).
//
// The std::map instances this replaces (LASS aggregation buffers, sparse
// token id maps, Chandy-Misra fork tables) hold zero to a handful of
// entries per site but cost a red-black tree node (~48 B of overhead plus
// an allocation) per entry — and at N = 10^6 sites even the empty maps'
// header bytes add up. FlatMap keeps (key, value) pairs in a SmallVector
// sorted by key: the first InlineN entries live inline in the owning
// object, spills go through the shared container pool, lookups are binary
// searches over contiguous memory, and iteration is ascending-key order —
// exactly std::map's — which is what keeps flush/send order (and therefore
// replay) byte-identical after the migration.
//
// Intended for small-degree maps (aggregation fan-out per event is bounded
// by the visited-set fan-out, not by N). Insert/erase are O(size) moves;
// that is the right trade below a few hundred entries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "core/small_vector.hpp"

namespace mra::core {

template <typename K, typename V, std::size_t InlineN = 4>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using storage_type = SmallVector<value_type, InlineN>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  void clear() { entries_.clear(); }

  [[nodiscard]] iterator find(const K& key) {
    iterator it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  [[nodiscard]] const_iterator find(const K& key) const {
    const_iterator it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find(key) != end();
  }

  /// std::map semantics: default-constructs the value on first access.
  V& operator[](const K& key) {
    iterator it = lower_bound(key);
    if (it == end() || it->first != key) {
      it = entries_.insert(it, value_type(key, V{}));
    }
    return it->second;
  }

  /// std::map::at semantics: throws when the key is absent.
  [[nodiscard]] V& at(const K& key) {
    iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: missing key");
    return it->second;
  }
  [[nodiscard]] const V& at(const K& key) const {
    const_iterator it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at: missing key");
    return it->second;
  }

  /// Inserts (key, value) if absent; returns {iterator, inserted}.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type(key, V(std::forward<Args>(args)...)));
    return {it, true};
  }

  iterator erase(iterator pos) { return entries_.erase(pos); }

  std::size_t erase(const K& key) {
    iterator it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }

  /// Erases every entry for which `pred(entry)` holds, keeping key order.
  template <typename Pred>
  void erase_if(Pred pred) {
    entries_.erase(std::remove_if(begin(), end(), pred), end());
  }

  /// True while entries live inline in the owning object (tests).
  [[nodiscard]] bool inline_storage() const {
    return entries_.inline_storage();
  }

 private:
  [[nodiscard]] iterator lower_bound(const K& key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const K& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  storage_type entries_;
};

}  // namespace mra::core
