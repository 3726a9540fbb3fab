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

// Sentinel for "this object is never requested again".
inline constexpr uint64_t kNeverAccessed = std::numeric_limits<uint64_t>::max();

struct Request {
  uint64_t id = 0;
  uint32_t size = 1;  // bytes; 1 in count-based (slab) simulations
  OpType op = OpType::kGet;
  // Index of the next request to the same id, filled by AnnotateNextAccess();
  // kNeverAccessed when unknown or absent. Consumed by Belady and by the
  // demotion-precision analysis.
  uint64_t next_access = kNeverAccessed;
};
// Every resident trace holds one per request; its index is its logical time.
static_assert(sizeof(Request) == 24, "Request must stay 24 bytes");

}  // namespace s3fifo

#endif  // SRC_TRACE_REQUEST_H_
