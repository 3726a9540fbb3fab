// Exact miss-ratio curves: miss ratio as a function of cache size for a
// given policy, computed either by the one-pass engine or by one full
// Simulate() per size (ComputeMrcResults, the brute-force reference).
//
// The one-pass engine simulates every size of the grid in a single trace
// traversal sharing ONE id lookup per request:
//
//   * objects are interned once into a dense index (id -> oi);
//   * residency per size is a bitmask over the grid, so the hit set for all
//     sizes falls out of one load (grids wider than 64 sizes run in chunks
//     of 64, one traversal per chunk);
//   * FIFO is not a stack algorithm (Belady's anomaly is real for it), so
//     fifo/clock/sieve/s3fifo/s3fifo-d keep each size's queues as rings over
//     the dense indices and replicate eviction decision-for-decision,
//     including clock's counter reinsertion, sieve's hand walk, and
//     S3-FIFO's small/main/ghost machinery with the adaptive variant's
//     shadow ghosts and rebalancing;
//   * LRU is a stack algorithm (Mattson et al.), so one recency stack kept
//     as a Fenwick tree serves every size, with a per-size hole count that
//     keeps it exact under deletes.
//
// The result is EXACT: per-size hit/miss/byte counts equal brute-force
// Simulate() for every supported policy (the differential test wall in
// tests/analysis/mrc_engine_test.cc pins this). Supported configurations
// are count-based caches of: fifo; clock (any `bits`); sieve; lru; s3fifo
// and s3fifo-d with the exact ghost queue and FIFO queue types
// (ghost_type=table and the small_lru/main_lru/main_sieve ablations, like
// every other policy, take the brute-force path).
#ifndef SRC_ANALYSIS_MRC_ENGINE_H_
#define SRC_ANALYSIS_MRC_ENGINE_H_

#include <string>
#include <vector>

#include "src/core/cache.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_view.h"

namespace s3fifo {

// How a curve is computed. kAuto is the default everywhere: one-pass when
// the (policy, config) is supported, brute force otherwise — the bench
// binaries expose it as --mrc=onepass|brute.
enum class MrcMode {
  kAuto,   // one-pass when supported, else brute force
  kBrute,  // one full simulation per size (the reference path)
};

// Parses "onepass" (kAuto) and "brute"; throws std::invalid_argument on
// anything else.
MrcMode ParseMrcMode(const std::string& name);

struct MrcCurve {
  std::vector<uint64_t> sizes;     // as requested (order and duplicates kept)
  std::vector<SimResult> results;  // index-aligned full counts per size
  std::string policy;
};

// True if OnePassMrc can reproduce `policy` under `config` exactly. The
// capacity field of `config` is ignored (the grid supplies capacities).
bool MrcEngineSupports(const std::string& policy, const CacheConfig& config);

// Computes the exact curve for all `sizes` in ceil(sizes/64) traversals of
// the view. Metrics follow Simulate(): deletes and the first
// `warmup_requests` requests warm the caches but are not measured. Throws
// std::invalid_argument if the policy/config is unsupported or a size is 0.
MrcCurve OnePassMrc(const TraceView& view, const std::string& policy,
                    const std::vector<uint64_t>& sizes,
                    const CacheConfig& base_config = {1, true, "", 42},
                    uint64_t warmup_requests = 0);

// One policy of a multi-policy OnePassMrc call.
struct MrcPolicy {
  std::string policy;
  CacheConfig config = {1, true, "", 42};
};

// OnePassMrc for each of `policies` over the same grid, interning the
// trace's ids once for all of them; the curves are index-aligned with
// `policies` and equal what one call per policy returns.
std::vector<MrcCurve> OnePassMrc(const TraceView& view, const std::vector<MrcPolicy>& policies,
                                 const std::vector<uint64_t>& sizes,
                                 uint64_t warmup_requests = 0);

// The brute-force reference: one full Simulate() per size, zero-copy over
// the view, with the same warmup rule as OnePassMrc. Any registered policy.
std::vector<SimResult> ComputeMrcResults(const TraceView& view, const std::string& policy,
                                         const std::vector<uint64_t>& sizes,
                                         const CacheConfig& base_config = {1, true, "", 42},
                                         uint64_t warmup_requests = 0);

}  // namespace s3fifo

#endif  // SRC_ANALYSIS_MRC_ENGINE_H_
