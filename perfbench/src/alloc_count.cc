// Counting global operator new/delete for the traced run's
// runtime.allocs_per_routed and runtime.alloc_bytes_per_result. Every form
// allocates with malloc/aligned_alloc so every delete form can free().
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

// relaxed: independent statistics read after the counted work has joined.
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

inline void Count(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}

void* Allocate(size_t size) {
  Count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(size_t size, std::align_val_t align) {
  Count(size);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {
void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
AllocCounts ReadAllocCounts() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}
}  // namespace perfbench

void* operator new(size_t size) { return Allocate(size); }
void* operator new[](size_t size) { return Allocate(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  Count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
