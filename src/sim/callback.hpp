// Small-buffer-optimized, move-only callable for the event hot path.
//
// std::function is the wrong vessel for scheduled events twice over: it
// requires copyable targets (which forced Network::deliver to wrap every
// message in a shared_ptr just to make the closure copyable) and it
// heap-allocates any capture beyond ~2 pointers (which made every deliver
// closure a malloc). This type owns its target inside a 40-byte inline
// buffer — enough for every engine callback in the project — and only falls
// back to the heap for oversized captures. It is move-only, so unique_ptr
// and other move-only captures travel through the event queue directly.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mra::sim {

class Callback {
 public:
  /// Inline capture budget. Holds either of the largest hot-path targets —
  /// the Network::deliver closure (node pointer + site id + unique_ptr
  /// message, 24 bytes) or a copied std::function (32 bytes on libstdc++) —
  /// and is chosen so a whole event-slab Slot (callback + ops pointer +
  /// free-list link) fits one 64-byte cache line. A larger capture still
  /// works; it transparently falls back to one heap allocation.
  static constexpr std::size_t kInlineBytes = 40;

  Callback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  Callback(F&& f) {
    using T = std::decay_t<F>;
    if constexpr (fits_inline<T>()) {
      ::new (static_cast<void*>(storage_)) T(std::forward<F>(f));
      ops_ = &InlineOps<T>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) T*(new T(std::forward<F>(f)));
      ops_ = &HeapOps<T>::ops;
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Destroys the held target, leaving the callback empty.
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty Callback");
    ops_->invoke(storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move)(void* dst, void* src);  ///< move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename T>
  static constexpr bool fits_inline() {
    return sizeof(T) <= kInlineBytes && alignof(T) <= 8 &&
           std::is_nothrow_move_constructible_v<T>;
  }

  template <typename T>
  struct InlineOps {
    static void invoke(void* p) { (*std::launder(static_cast<T*>(p)))(); }
    static void move(void* dst, void* src) {
      T* s = std::launder(static_cast<T*>(src));
      ::new (dst) T(std::move(*s));
      s->~T();
    }
    static void destroy(void* p) { std::launder(static_cast<T*>(p))->~T(); }
    static constexpr Ops ops{&invoke, &move, &destroy};
  };

  template <typename T>
  struct HeapOps {
    static T* held(void* p) { return *std::launder(static_cast<T**>(p)); }
    static void invoke(void* p) { (*held(p))(); }
    static void move(void* dst, void* src) {
      ::new (dst) T*(held(src));  // ownership transfers with the pointer
    }
    static void destroy(void* p) { delete held(p); }
    static constexpr Ops ops{&invoke, &move, &destroy};
  };

  void move_from(Callback& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(8) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Non-owning reference to a `bool()` callable — the run-loop predicate
/// vocabulary type (two words, trivially copyable, no allocation ever).
/// std::function would heap-allocate larger captures and add a vtable-like
/// dispatch on a path executed after every event; a function_ref does not.
/// The referenced callable must outlive the call it is passed to, which
/// holds even for lambda temporaries at a call site (they live until the
/// end of the full expression). Do not store a PredicateRef.
class PredicateRef {
 public:
  /// Empty ref: evaluates as false-y via operator bool, never invoked.
  PredicateRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, PredicateRef> &&
                std::is_invocable_r_v<bool, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): call-site transparent.
  PredicateRef(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj) -> bool {
          return static_cast<bool>(
              (*static_cast<std::remove_reference_t<F>*>(obj))());
        }) {}

  [[nodiscard]] explicit operator bool() const { return call_ != nullptr; }

  bool operator()() const {
    assert(call_ != nullptr && "invoking an empty PredicateRef");
    return call_(obj_);
  }

 private:
  void* obj_ = nullptr;
  bool (*call_)(void*) = nullptr;
};

}  // namespace mra::sim
