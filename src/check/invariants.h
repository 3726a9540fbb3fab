// Metamorphic invariants: properties that must hold for every policy on
// every trace, independent of any reference oracle. The fuzz tests run these
// alongside the differential comparison, and they are the only line of
// defense for the policies that have no naive oracle (arc, lirs, tinylfu,
// lecar, ...).
//
//   * occupancy never exceeds capacity after any request;
//   * an explicit delete leaves the object non-resident;
//   * a (count-based) hit leaves the object resident;
//   * hits + misses == measured requests (conservation, via SimResult);
//   * S3-FIFO's ghost queue never holds more than its configured entries;
//   * replaying the identical trace on a fresh cache is deterministic;
//   * Belady's MIN is a lower bound on the miss count (count-based,
//     get-only traces — the optimality argument needs uniform sizes and no
//     invalidation).
//
// MRC invariants (the one-pass engine's metamorphic contract):
//
//   * the one-pass curve equals the brute-force per-size simulations
//     count-for-count;
//   * miss counts are non-increasing in cache size up to a small slack
//     (FIFO-family policies lack the inclusion property, so Belady's anomaly
//     makes strict monotonicity genuinely false — the slack bounds it);
//   * refining the size grid never changes the results at the original
//     sizes (each size simulates independently; dedup/chunking must not
//     leak state across grid shapes).
#ifndef SRC_CHECK_INVARIANTS_H_
#define SRC_CHECK_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cache.h"
#include "src/trace/request.h"

namespace s3fifo {
namespace check {

struct InvariantReport {
  std::vector<std::string> violations;  // empty == every invariant held
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;

  bool ok() const { return violations.empty(); }
};

// Streams `requests` through a fresh cache of the given policy, checking the
// per-request invariants after every step. Stops collecting after
// `max_violations` (the run itself continues so the counts stay complete).
InvariantReport CheckRequestInvariants(std::string_view policy, const CacheConfig& config,
                                       const std::vector<Request>& requests,
                                       uint64_t max_violations = 10);

// Replays the trace twice on fresh caches; returns "" when both runs agree
// on every hit/miss decision and the final occupancy, else a description.
std::string CheckDeterministicReplay(std::string_view policy, const CacheConfig& config,
                                     const std::vector<Request>& requests);

// Runs Belady and the policy on the same trace; returns "" when
// belady_misses <= policy_misses. Requirements: count-based config, get-only
// requests. The trace is annotated internally.
std::string CheckBeladyLowerBound(std::string_view policy, const CacheConfig& config,
                                  const std::vector<Request>& requests);

// Replays the trace on two fresh caches — one through Get() per request, one
// through GetBatch() in batch_size chunks — and returns "" when every hit
// bit, the final occupancy, and the final clock agree, else a description.
// This pins the policies' devirtualized AccessBatch loops (and their batched
// eviction sweeps) to the scalar path bit-for-bit.
std::string CheckBatchedParity(std::string_view policy, const CacheConfig& config,
                               const std::vector<Request>& requests, uint32_t batch_size = 512);

// --- One-pass MRC engine invariants -------------------------------------
// All take a policy the engine supports (MrcEngineSupports), a count-based
// base config (capacity is overridden per grid size), and return "" on
// success or a violation description.

// Differential: the one-pass curve must equal brute-force per-size
// simulations on every count (requests/hits/misses/bytes).
std::string CheckMrcMatchesBruteForce(std::string_view policy, const CacheConfig& config,
                                      const std::vector<Request>& requests,
                                      const std::vector<uint64_t>& sizes);

// Metamorphic: a larger cache must not miss more, up to `slack` misses per
// size step (Belady's anomaly is real for FIFO-family policies but small;
// slack 0 disables the tolerance). Default slack: max(8, 2% of measured
// requests).
std::string CheckMrcMonotone(std::string_view policy, const CacheConfig& config,
                             const std::vector<Request>& requests,
                             const std::vector<uint64_t>& sizes, uint64_t slack = UINT64_MAX);

// Metamorphic: inserting midpoints into the grid must not change the results
// at the original sizes (sizes simulate independently; chunk/dedup logic
// must not leak state between grid shapes). Exact — no tolerance.
std::string CheckMrcGridRefinement(std::string_view policy, const CacheConfig& config,
                                   const std::vector<Request>& requests,
                                   const std::vector<uint64_t>& sizes);

}  // namespace check
}  // namespace s3fifo

#endif  // SRC_CHECK_INVARIANTS_H_
