// Allocation-counting operator new, linked into the traced binary only
// (the technique of tests/net_record_batch_test.cpp). The count is per
// thread, so a span can read the allocations of the layer call it
// surrounds without contention from other threads.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "measure.hpp"

namespace {

thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sensorbench {
std::uint64_t thread_allocations() { return t_allocations; }
bool allocations_counted() { return true; }
}  // namespace sensorbench
