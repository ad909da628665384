// Inline-capacity vector for per-site protocol state (DESIGN.md §13).
//
// A site at N = 10^6 cannot afford a heap allocation (plus two pointers of
// bookkeeping) for every empty buffer it might one day use: the std::map /
// std::vector-of-vector state this replaces cost ~1.3 MB/site at N = 1024.
// SmallVector stores up to InlineN elements in the object itself — the
// common case for aggregation buffers, token queues and sparse id maps is
// zero to a handful of entries — and spills to the heap only beyond that.
// Spilled blocks of pooled size go through a thread-local
// core::FreeListPool (the message-pool pattern, §9), so steady-state
// grow/shrink churn recycles the same cache-warm blocks; larger blocks fall
// back to the system allocator. Not thread-safe; one simulation owns its
// containers on one thread.
//
// Deliberately minimal: the subset of the std::vector interface the
// protocol layer uses (push_back/emplace_back, assign from a range,
// insert/erase by position, iteration, indexing, clear). Elements may be
// non-trivial (ReqItem carries a ResourceSet); moves are member-wise
// element moves, not buffer steals, when the source is inline.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "core/arena.hpp"

namespace mra::core {

/// Thread-local spill pool shared by every SmallVector on the thread.
/// Sanitizer builds bypass it (MRA_CONTAINER_POOL_DISABLED) so ASan sees
/// true buffer lifetimes.
FreeListPool& container_spill_pool();

void* container_spill_allocate(std::size_t bytes);
void container_spill_deallocate(void* p, std::size_t bytes) noexcept;

template <typename T, std::size_t InlineN>
class SmallVector {
  static_assert(InlineN >= 1, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(const SmallVector& other) { append_from(other); }

  SmallVector(SmallVector&& other) noexcept { steal_from(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append_from(other);
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      destroy_storage();
      steal_from(other);
    }
    return *this;
  }

  ~SmallVector() { destroy_storage(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// True while elements live in the inline buffer (tests).
  [[nodiscard]] bool inline_storage() const { return data_ == inline_data(); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(size_ + 1);
    T* p = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  /// Replaces the contents with copies of [first, last).
  template <typename It>
  void assign(It first, It last) {
    clear();
    reserve(static_cast<std::size_t>(std::distance(first, last)));
    for (; first != last; ++first) new (data_ + size_++) T(*first);
  }

  /// Inserts before `pos`; returns the iterator to the inserted element.
  iterator insert(const_iterator pos, T value) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    assert(idx <= size_);
    if (size_ == capacity_) grow(size_ + 1);
    if (idx == size_) {
      new (data_ + size_) T(std::move(value));
    } else {
      new (data_ + size_) T(std::move(data_[size_ - 1]));
      std::move_backward(data_ + idx, data_ + size_ - 1, data_ + size_);
      data_[idx] = std::move(value);
    }
    ++size_;
    return data_ + idx;
  }

  iterator erase(const_iterator pos) {
    return erase(pos, pos + 1);
  }

  iterator erase(const_iterator first, const_iterator last) {
    const std::size_t b = static_cast<std::size_t>(first - data_);
    const std::size_t e = static_cast<std::size_t>(last - data_);
    assert(b <= e && e <= size_);
    std::move(data_ + e, data_ + size_, data_ + b);
    const std::size_t removed = e - b;
    for (std::size_t i = size_ - removed; i < size_; ++i) data_[i].~T();
    size_ -= removed;
    return data_ + b;
  }

  void pop_back() {
    assert(size_ > 0);
    data_[--size_].~T();
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

 private:
  [[nodiscard]] T* inline_data() {
    return std::launder(reinterpret_cast<T*>(inline_buf_));
  }
  [[nodiscard]] const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_buf_));
  }

  void grow(std::size_t min_capacity) {
    std::size_t cap = capacity_ * 2;
    if (cap < min_capacity) cap = min_capacity;
    T* fresh =
        static_cast<T*>(container_spill_allocate(cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_buffer();
    data_ = fresh;
    capacity_ = cap;
  }

  void release_buffer() {
    if (data_ != inline_data()) {
      container_spill_deallocate(data_, capacity_ * sizeof(T));
    }
  }

  void destroy_storage() {
    clear();
    release_buffer();
    data_ = inline_data();
    capacity_ = InlineN;
  }

  void append_from(const SmallVector& other) {
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) {
      new (data_ + i) T(other.data_[i]);
    }
    size_ = other.size_;
  }

  /// Precondition: *this owns no storage (freshly constructed or after
  /// destroy_storage()). Steals the heap buffer when the source spilled;
  /// element-wise moves otherwise.
  void steal_from(SmallVector& other) noexcept {
    if (other.data_ != other.inline_data()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = InlineN;
      other.size_ = 0;
      return;
    }
    data_ = inline_data();
    capacity_ = InlineN;
    for (std::size_t i = 0; i < other.size_; ++i) {
      new (data_ + i) T(std::move(other.data_[i]));
      other.data_[i].~T();
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  alignas(T) unsigned char inline_buf_[InlineN * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = InlineN;
};

}  // namespace mra::core
