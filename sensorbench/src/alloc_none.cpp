// The untraced binary keeps the default allocator: no counting hook.
#include "measure.hpp"

namespace sensorbench {
std::uint64_t thread_allocations() { return 0; }
bool allocations_counted() { return false; }
}  // namespace sensorbench
