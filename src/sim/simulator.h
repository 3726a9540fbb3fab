// Trace-driven simulation: runs a trace through a cache and collects miss
// metrics (request and byte miss ratio, with optional warmup exclusion).
//
// Simulate is the one-cache case of MultiSimulate (src/sim/multi_sim.h), so
// both run the same loop: slices of the trace go through Cache::GetBatch,
// the policy's prefetch-batched block loop, whose results are bit-identical
// to calling Cache::Get once per request.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>

#include "src/core/cache.h"
#include "src/trace/trace.h"
#include "src/trace/trace_view.h"

namespace s3fifo {

struct SimOptions {
  // Requests excluded from the metrics while still warming the cache.
  uint64_t warmup_requests = 0;
};

struct SimResult {
  uint64_t requests = 0;  // measured requests (post warmup, get/set only)
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bytes_requested = 0;
  uint64_t bytes_missed = 0;

  double MissRatio() const {
    return requests == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(requests);
  }
  double ByteMissRatio() const {
    return bytes_requested == 0
               ? 0.0
               : static_cast<double>(bytes_missed) / static_cast<double>(bytes_requested);
  }
};

// Throws std::invalid_argument if the cache requires next-access annotation
// (Belady) and the trace is not annotated.
SimResult Simulate(const TraceView& view, Cache& cache, const SimOptions& options = {});
SimResult Simulate(const Trace& trace, Cache& cache, const SimOptions& options = {});

}  // namespace s3fifo

#endif  // SRC_SIM_SIMULATOR_H_
