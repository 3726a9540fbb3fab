// Single-pass multi-cache simulation: stream one trace through N caches
// (policies × capacities) at once, instead of re-reading it once per cache.
// This is the single-configuration-pass idea from single-pass MRC tooling
// (CIPARSim, DEW) applied to the whole policy-comparison harness: the trace
// is the expensive shared input, so every consumer rides the same scan.
//
// Within each block the requests go through Cache::GetBatch, which
// prefetches the hash probe slot kPrefetchDistance requests ahead — a hint
// only, results unchanged. Simulate is this loop with one cache.
#ifndef SRC_SIM_MULTI_SIM_H_
#define SRC_SIM_MULTI_SIM_H_

#include <memory>
#include <span>
#include <vector>

#include "src/sim/simulator.h"

namespace s3fifo {

// Drives every cache through the trace in one pass. The i-th result is
// bit-identical to Simulate(trace, *caches[i], options): each cache sees the
// same request sequence in the same order, so per-cache state evolution is
// unchanged — only the trace iteration is shared.
//
// Throws std::invalid_argument if any cache requires next-access annotation
// (Belady) and the trace is not annotated.
std::vector<SimResult> MultiSimulate(const TraceView& view, std::span<Cache* const> caches,
                                     const SimOptions& options = {});
std::vector<SimResult> MultiSimulate(const Trace& trace, std::span<Cache* const> caches,
                                     const SimOptions& options = {});

// Convenience overloads for an owning vector of caches.
std::vector<SimResult> MultiSimulate(const TraceView& view,
                                     const std::vector<std::unique_ptr<Cache>>& caches,
                                     const SimOptions& options = {});
std::vector<SimResult> MultiSimulate(const Trace& trace,
                                     const std::vector<std::unique_ptr<Cache>>& caches,
                                     const SimOptions& options = {});

}  // namespace s3fifo

#endif  // SRC_SIM_MULTI_SIM_H_
