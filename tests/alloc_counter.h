#pragma once

// A counting global operator new/delete for tests that check what code
// allocates. Include it in exactly one translation unit of a test binary:
// it replaces the binary's global allocation functions. Keep it out of the
// binaries the sanitizer presets run (tsan_smoke, asan_smoke): the
// replacement hides new/delete from the sanitizer's own checks.
//
// Every block carries a 16-byte header holding its requested size, so a
// delete knows what it frees; that lets a test watch the live blocks of
// one size (a model-sized accumulator, say) while everything else in the
// process allocates around it.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline std::atomic<std::size_t> allocations{0};  // operator new calls
inline std::atomic<std::size_t> bytes{0};        // bytes they asked for
// Blocks of exactly watched_size bytes (0 watches nothing): how many were
// allocated, how many are live now, and the most that were live at once.
inline std::atomic<std::size_t> watched_size{0};
inline std::atomic<std::size_t> watched_allocations{0};
inline std::atomic<std::size_t> watched_live{0};
inline std::atomic<std::size_t> watched_peak{0};

// Starts watching blocks of `size` bytes, with every watched count zeroed.
inline void watch(std::size_t size) {
  watched_allocations = 0;
  watched_live = 0;
  watched_peak = 0;
  watched_size = size;
}

// Allocation calls and bytes requested while `fn` runs on this thread (the
// tests that use it run no other thread meanwhile).
struct Count {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};
template <class Fn>
Count count(Fn&& fn) {
  const std::size_t a0 = allocations.load();
  const std::size_t b0 = bytes.load();
  fn();
  return {allocations.load() - a0, bytes.load() - b0};
}

inline constexpr std::size_t kHeader = 16;  // keeps new's 16-byte alignment

}  // namespace alloc_counter

void* operator new(std::size_t n) {
  void* base = std::malloc(n + alloc_counter::kHeader);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = n;
  alloc_counter::allocations.fetch_add(1, std::memory_order_relaxed);
  alloc_counter::bytes.fetch_add(n, std::memory_order_relaxed);
  if (n != 0 && n == alloc_counter::watched_size.load()) {
    alloc_counter::watched_allocations.fetch_add(1);
    const std::size_t live = alloc_counter::watched_live.fetch_add(1) + 1;
    std::size_t peak = alloc_counter::watched_peak.load();
    while (live > peak &&
           !alloc_counter::watched_peak.compare_exchange_weak(peak, live)) {
    }
  }
  return static_cast<char*>(base) + alloc_counter::kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - alloc_counter::kHeader;
  const std::size_t n = *static_cast<std::size_t*>(base);
  if (n != 0 && n == alloc_counter::watched_size.load()) {
    alloc_counter::watched_live.fetch_sub(1);
  }
  std::free(base);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
