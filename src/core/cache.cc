#include "src/core/cache.h"

#include <stdexcept>

namespace s3fifo {

Cache::Cache(const CacheConfig& config)
    : capacity_(config.capacity), count_based_(config.count_based) {
  if (capacity_ == 0) {
    throw std::invalid_argument("CacheConfig.capacity must be > 0");
  }
}

bool Cache::Get(const Request& req) {
  ++clock_;
  if (req.op == OpType::kDelete) {
    Remove(req.id);
    return false;
  }
  return Access(req);
}

void Cache::GetBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  AccessBatch(view, begin, end, hits);
}

void Cache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  const Request* reqs = view.AsRequests();
  for (uint64_t i = begin; i < end; ++i) {
    if (i + kPrefetchDistance < end) {
      Prefetch(reqs[i + kPrefetchDistance].id);
    }
    hits[i - begin] = Get(reqs[i]) ? 1 : 0;
  }
}

}  // namespace s3fifo
