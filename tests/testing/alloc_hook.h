#ifndef UJOIN_TESTS_TESTING_ALLOC_HOOK_H_
#define UJOIN_TESTS_TESTING_ALLOC_HOOK_H_

// Global allocation hook for allocation-count gates.  It replaces the
// global operator new/delete family, so include it from exactly one source
// file of a test binary.  Counting is off except inside CountAllocations
// scopes, so gtest's own bookkeeping does not pollute the counter.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace ujoin::testing::alloc_hook_internal {

inline std::atomic<bool> g_count_allocations{false};
inline std::atomic<size_t> g_allocation_count{0};

inline void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::aligned_alloc(alignment, ((size + alignment - 1) / alignment) *
                                              alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace ujoin::testing::alloc_hook_internal

void* operator new(std::size_t size) {
  return ujoin::testing::alloc_hook_internal::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return ujoin::testing::alloc_hook_internal::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return ujoin::testing::alloc_hook_internal::CountedAllocAligned(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ujoin::testing::alloc_hook_internal::CountedAllocAligned(
      size, static_cast<std::size_t>(align));
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

namespace ujoin::testing {

/// Counts the heap allocations made while it is alive (process-wide, so
/// keep other threads quiet inside the scope).
class CountAllocations {
 public:
  CountAllocations() {
    alloc_hook_internal::g_allocation_count.store(0,
                                                  std::memory_order_relaxed);
    alloc_hook_internal::g_count_allocations.store(true,
                                                   std::memory_order_relaxed);
  }
  ~CountAllocations() {
    alloc_hook_internal::g_count_allocations.store(false,
                                                   std::memory_order_relaxed);
  }
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;

  size_t count() const {
    return alloc_hook_internal::g_allocation_count.load(
        std::memory_order_relaxed);
  }
};

}  // namespace ujoin::testing

#endif  // UJOIN_TESTS_TESTING_ALLOC_HOOK_H_
