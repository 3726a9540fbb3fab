// The request model shared by the simulator, analysis, and workload layers.
#ifndef SRC_TRACE_REQUEST_H_
#define SRC_TRACE_REQUEST_H_

#include <cstdint>
#include <limits>

namespace s3fifo {

enum class OpType : uint8_t {
  kGet = 0,
  kSet = 1,     // write/overwrite: treated as insert-or-update
  kDelete = 2,  // explicit invalidation
};

// Sentinel for "this object is never requested again" in a trace's
// next-access column (Trace::next_access()).
inline constexpr uint64_t kNeverAccessed = std::numeric_limits<uint64_t>::max();

struct Request {
  uint64_t id = 0;
  uint32_t size = 1;  // bytes; 1 in count-based (slab) simulations
  OpType op = OpType::kGet;
};
// Every resident trace holds one per request; its index is its logical time.
// The next access to the same id is not a field: only annotated traces carry
// it, as a column beside the request array (Trace::next_access()).
static_assert(sizeof(Request) == 16, "Request must stay 16 bytes");

}  // namespace s3fifo

#endif  // SRC_TRACE_REQUEST_H_
