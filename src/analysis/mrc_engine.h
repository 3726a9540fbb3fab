// One-pass miss-ratio-curve engine for the FIFO-inclusive family.
//
// FIFO is not a stack algorithm — the Belady anomaly is real for it, so an
// MRC cannot be read off a reuse-distance histogram the way LRU's can
// (Mattson et al.). What the FIFO family *does* admit is cheap simultaneous
// simulation: the per-request cost of a brute-force sweep is dominated by
// the hash lookup (one FlatMap probe per request per size — see ROADMAP
// PR 1), while the per-size queue mutations are a handful of array writes.
// This engine therefore simulates every size of the grid in a single trace
// traversal sharing ONE id lookup per request:
//
//   * objects are interned once into a dense index (id -> oi);
//   * residency per size is a bitmask word per object, so the hit set for
//     all sizes falls out of one load (grids wider than 64 sizes run in
//     chunks of 64, one traversal per chunk);
//   * each size's queues are array-backed doubly-linked lists over the
//     dense indices (prev = toward the head/newer, next = toward the
//     tail/older), replicating fifo/clock/sieve/s3fifo/s3fifo-d eviction
//     decision-for-decision — including clock's counter reinsertion,
//     sieve's hand walk, and S3-FIFO's small/main/ghost machinery with the
//     adaptive variant's shadow ghosts and rebalancing.
//
// The result is EXACT: per-size hit/miss/byte counts equal brute-force
// Simulate() for every supported policy (the differential test wall in
// tests/analysis/mrc_engine_test.cc pins this). Supported configurations
// are count-based caches of: fifo; clock (any `bits`); sieve; s3fifo and
// s3fifo-d with the exact ghost queue and FIFO queue types (ghost_type=table
// and the small_lru/main_lru/main_sieve ablations fall back to brute force).
//
// For policies outside the family, shards.h's streaming ShardsMrc provides
// an approximate curve from a spatial sample (a direct call; ComputeMrcCurve
// only dispatches between the exact paths).
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
  std::vector<uint64_t> sizes;      // as requested (order and duplicates kept)
  std::vector<SimResult> results;   // index-aligned full counts per size
  std::vector<double> miss_ratios;  // index-aligned; == results[i].MissRatio()
                                    // except for bias-corrected SHARDS curves
  bool exact = false;               // true for one-pass and brute curves
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

struct MrcOptions {
  MrcMode mode = MrcMode::kAuto;
  CacheConfig base_config{1, true, "", 42};
  uint64_t warmup_requests = 0;
};

// Mode dispatcher: one-pass (when supported) or brute per `options.mode`.
MrcCurve ComputeMrcCurve(const TraceView& view, const std::string& policy,
                         const std::vector<uint64_t>& sizes, const MrcOptions& options = {});

}  // namespace s3fifo

#endif  // SRC_ANALYSIS_MRC_ENGINE_H_
