// Counting replacement of the global allocation functions.
//
// Relaxed atomics: path precompute allocates from exp::Runner worker
// threads, and only the total matters, never an ordering between
// threads. Counts over single-threaded stages repeat exactly run to run,
// because every allocation site in the simulators is deterministic.

#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p != nullptr) g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
