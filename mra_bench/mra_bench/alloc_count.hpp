// Counting global allocation functions for the per-layer allocation metrics
// (alloc.per_request, scenario.alloc_bytes_per_site).
//
// This header *defines* the replaceable global operator new/delete, so it is
// included from exactly one translation unit (mra_bench.cpp). Counting is off
// until enable(): the untraced reps pay one predictable branch per
// allocation and nothing else. Message objects bypass these functions
// through the library's own pool (net/message_pool.hpp), so the counts show
// what the pool does not absorb.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace mra_bench::alloc {

inline std::atomic<bool> g_enabled{false};
inline std::atomic<std::uint64_t> g_count{0};
inline std::atomic<std::uint64_t> g_bytes{0};

inline void note(std::size_t bytes) {
  if (g_enabled.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

struct Counts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

inline void enable() { g_enabled.store(true, std::memory_order_relaxed); }

[[nodiscard]] inline Counts now() {
  return {g_count.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

[[nodiscard]] inline Counts operator-(const Counts& a, const Counts& b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

[[nodiscard]] inline void* allocate(std::size_t bytes) {
  note(bytes);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

[[nodiscard]] inline void* allocate_aligned(std::size_t bytes,
                                            std::align_val_t align) {
  note(bytes);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = bytes == 0 ? a : (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace mra_bench::alloc

// Every replaceable form is defined here, so allocation and release always
// pair up inside this file (with a sanitizer runtime, any form left out
// would come from the runtime and mismatch our free()).
void* operator new(std::size_t bytes) { return mra_bench::alloc::allocate(bytes); }
void* operator new[](std::size_t bytes) { return mra_bench::alloc::allocate(bytes); }
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  try {
    return mra_bench::alloc::allocate(bytes);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return ::operator new(bytes, tag);
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return mra_bench::alloc::allocate_aligned(bytes, align);
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return mra_bench::alloc::allocate_aligned(bytes, align);
}
void* operator new(std::size_t bytes, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return mra_bench::alloc::allocate_aligned(bytes, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t bytes, std::align_val_t align, const std::nothrow_t& tag) noexcept {
  return ::operator new(bytes, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
