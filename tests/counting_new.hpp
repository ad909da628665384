// Counting replacements of the global allocation functions, for tests that
// assert a code path allocates nothing: calls are counted only inside
// mra::test::allocations_during(). Every replaceable form is defined, so
// allocation and release always pair up (also under a sanitizer runtime).
//
// The replacements are ordinary (non-inline) definitions, as the standard
// requires: include this header from exactly one translation unit of a test
// binary.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
bool g_count_allocations = false;
std::uint64_t g_allocations = 0;

void* counted_malloc(std::size_t bytes) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t bytes, std::align_val_t align) {
  if (g_count_allocations) ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = bytes == 0 ? a : (bytes + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) {
  return counted_malloc(n);
}
void* operator new[](std::size_t n) {
  return counted_malloc(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_malloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(n, a);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(n, a, tag);
}
void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mra::test {

/// Number of global operator new calls made by fn().
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocations - before;
}

}  // namespace mra::test
