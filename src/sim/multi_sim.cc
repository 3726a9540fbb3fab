#include "src/sim/multi_sim.h"

#include <algorithm>
#include <stdexcept>

namespace s3fifo {
namespace {

// Requests driven through one cache before switching to the next. Blocking
// keeps each cache's table hot for thousands of consecutive requests (per-
// request interleaving would touch every cache's working set on every
// request and thrash the CPU cache once the tables outgrow L2), while the
// trace block itself — the shared input — stays resident across all caches:
// 65,536 16-byte requests are 1 MiB, inside one core's 2 MiB L2. Each
// cache still sees the full request sequence in order, so results are
// unchanged.
constexpr uint64_t kBlockRequests = 65536;

// Requests handed to Cache::GetBatch per call. A block is a whole number of
// batches, so a one-cache run issues the same GetBatch slices as a plain
// 4096-request walk over the trace.
constexpr uint64_t kBatchRequests = 4096;
static_assert(kBlockRequests % kBatchRequests == 0);

// One (cache, block) inner loop: slices of the block go through
// Cache::GetBatch — the policy's devirtualized block loop — and the metrics
// are accounted from the hit bitmap plus the requests' ops and sizes.
void RunBlock(const TraceView& view, Cache* cache, SimResult& r, uint64_t begin, uint64_t end,
              const SimOptions& options, uint8_t* hits) {
  const Request* reqs = view.AsRequests();
  for (uint64_t b = begin; b < end; b += kBatchRequests) {
    const uint64_t e = std::min<uint64_t>(b + kBatchRequests, end);
    cache->GetBatch(view, b, e, hits);
    for (uint64_t i = b; i < e; ++i) {
      if (i < options.warmup_requests || reqs[i].op == OpType::kDelete) {
        continue;
      }
      const uint64_t size = reqs[i].size;
      ++r.requests;
      r.bytes_requested += size;
      if (hits[i - b] != 0) {
        ++r.hits;
      } else {
        ++r.misses;
        r.bytes_missed += size;
      }
    }
  }
}

}  // namespace

std::vector<SimResult> MultiSimulate(const TraceView& view, std::span<Cache* const> caches,
                                     const SimOptions& options) {
  for (Cache* cache : caches) {
    if (cache->RequiresNextAccess() && !view.annotated()) {
      throw std::invalid_argument("policy '" + cache->Name() +
                                  "' requires AnnotateNextAccess() on the trace");
    }
  }
  std::vector<SimResult> results(caches.size());
  const uint64_t n = view.size();
  std::vector<uint8_t> hits(kBatchRequests);  // reused across caches and blocks
  for (uint64_t begin = 0; begin < n; begin += kBlockRequests) {
    const uint64_t end = std::min<uint64_t>(begin + kBlockRequests, n);
    for (size_t i = 0; i < caches.size(); ++i) {
      RunBlock(view, caches[i], results[i], begin, end, options, hits.data());
    }
  }
  return results;
}

std::vector<SimResult> MultiSimulate(const Trace& trace, std::span<Cache* const> caches,
                                     const SimOptions& options) {
  return MultiSimulate(TraceView::Borrow(trace), caches, options);
}

namespace {

std::vector<Cache*> RawPointers(const std::vector<std::unique_ptr<Cache>>& caches) {
  std::vector<Cache*> ptrs;
  ptrs.reserve(caches.size());
  for (const auto& cache : caches) {
    ptrs.push_back(cache.get());
  }
  return ptrs;
}

}  // namespace

std::vector<SimResult> MultiSimulate(const TraceView& view,
                                     const std::vector<std::unique_ptr<Cache>>& caches,
                                     const SimOptions& options) {
  const std::vector<Cache*> ptrs = RawPointers(caches);
  return MultiSimulate(view, std::span<Cache* const>(ptrs), options);
}

std::vector<SimResult> MultiSimulate(const Trace& trace,
                                     const std::vector<std::unique_ptr<Cache>>& caches,
                                     const SimOptions& options) {
  const std::vector<Cache*> ptrs = RawPointers(caches);
  return MultiSimulate(trace, std::span<Cache* const>(ptrs), options);
}

}  // namespace s3fifo
