// Differential MRC test wall: the one-pass engine must reproduce the
// brute-force per-size simulations COUNT-FOR-COUNT — not just matching miss
// ratios — for every supported policy, across workload shapes, seeds, and
// degenerate size grids. These tests are the license for the bench binaries
// to default to --mrc=onepass on published figures.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/mrc_engine.h"
#include "src/check/trace_fuzzer.h"
#include "src/trace/trace_view.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// The epsilon EXPERIMENTS.md documents for the s3fifo variants. The engine
// replicates the ghost machinery exactly, so the bound is 0 — pinned here so
// any future relaxation has to edit a named constant in the test wall.
constexpr double kS3FifoCurveEpsilon = 0.0;

Trace MixedZipf(uint64_t seed, uint64_t num_requests = 60000) {
  ZipfWorkloadConfig c;
  c.num_objects = 4000;
  c.num_requests = num_requests;
  c.alpha = 1.0;
  c.write_fraction = 0.1;
  c.delete_fraction = 0.02;
  c.burst_fraction = 0.1;
  c.seed = seed;
  return GenerateZipfTrace(c);
}

Trace FuzzTrace(uint64_t seed, uint64_t num_requests = 30000) {
  check::FuzzConfig config;
  config.seed = seed;
  config.num_requests = num_requests;
  config.capacity = 128;
  config.count_based = true;
  return Trace(check::GenerateFuzzRequests(config), "fuzz");
}

std::vector<uint64_t> DefaultGrid() { return {16, 64, 128, 256, 512, 1024, 3000}; }

// Asserts per-size count equality between the one-pass curve and the
// brute-force reference, with `epsilon` as the documented bound on the
// derived miss ratios (0 for exact policies).
void ExpectOnePassMatchesBrute(const Trace& trace, const std::string& policy,
                               const std::vector<uint64_t>& sizes, const CacheConfig& config,
                               double epsilon, uint64_t warmup = 0) {
  const TraceView view = TraceView::Borrow(trace);
  const MrcCurve onepass = OnePassMrc(view, policy, sizes, config, warmup);
  const std::vector<SimResult> brute = ComputeMrcResults(view, policy, sizes, config, warmup);
  ASSERT_EQ(onepass.results.size(), sizes.size());
  ASSERT_EQ(brute.size(), sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    const SimResult& a = onepass.results[i];
    const SimResult& b = brute[i];
    EXPECT_NEAR(a.MissRatio(), b.MissRatio(), epsilon)
        << policy << " size=" << sizes[i];
    EXPECT_EQ(a.requests, b.requests) << policy << " size=" << sizes[i];
    EXPECT_EQ(a.hits, b.hits) << policy << " size=" << sizes[i];
    EXPECT_EQ(a.misses, b.misses) << policy << " size=" << sizes[i];
    EXPECT_EQ(a.bytes_requested, b.bytes_requested) << policy << " size=" << sizes[i];
    EXPECT_EQ(a.bytes_missed, b.bytes_missed) << policy << " size=" << sizes[i];
  }
}

CacheConfig CountConfig(const std::string& params = "") {
  CacheConfig config;
  config.capacity = 1;  // overridden per grid size
  config.count_based = true;
  config.params = params;
  return config;
}

TEST(MrcEngineTest, FifoExactOnZipfAcrossSeeds) {
  for (const uint64_t seed : {1, 7, 23}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "fifo", DefaultGrid(), CountConfig(), 0.0);
  }
}

TEST(MrcEngineTest, ClockExactOnZipfAcrossSeeds) {
  for (const uint64_t seed : {2, 11}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "clock", DefaultGrid(), CountConfig(), 0.0);
  }
}

TEST(MrcEngineTest, ClockExactWithWiderCounters) {
  ExpectOnePassMatchesBrute(MixedZipf(3), "clock", DefaultGrid(), CountConfig("bits=3"), 0.0);
}

TEST(MrcEngineTest, SieveExactOnZipfAcrossSeeds) {
  for (const uint64_t seed : {4, 19}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "sieve", DefaultGrid(), CountConfig(), 0.0);
  }
}

TEST(MrcEngineTest, LruExactOnZipfAcrossSeeds) {
  for (const uint64_t seed : {12, 35}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "lru", DefaultGrid(), CountConfig(), 0.0);
  }
}

// A delete leaves a free slot in LruCache; it does not bring back what an
// earlier miss evicted. At C=1, `a, b, del b, a` misses the second a: b
// evicted a, and the delete of b emptied the cache. Plain Mattson drops b
// from the stack and finds a at depth 0, a hit at every size.
TEST(MrcEngineTest, LruDeleteLeavesHoleNotRestoredObject) {
  const auto get = [](uint64_t id) { return Request{.id = id}; };
  const auto del = [](uint64_t id) { return Request{.id = id, .op = OpType::kDelete}; };
  const Trace trace({get(1), get(2), del(2), get(1)}, "delete-hole");
  const MrcCurve curve = OnePassMrc(TraceView::Borrow(trace), "lru", {1, 2}, CountConfig());
  EXPECT_EQ(curve.results[0].hits, 0u);  // b evicted a; the delete does not bring it back
  EXPECT_EQ(curve.results[1].hits, 1u);  // both fit at C=2
  ExpectOnePassMatchesBrute(trace, "lru", {1, 2}, CountConfig(), 0.0);

  // The next miss fills the hole instead of evicting: at C=2, `a, b, c,
  // del c, a, b` misses a (c evicted it), a takes c's free slot, and b is
  // still resident. Plain Mattson hits both.
  const Trace refill({get(1), get(2), get(3), del(3), get(1), get(2)}, "hole-refill");
  const MrcCurve refilled = OnePassMrc(TraceView::Borrow(refill), "lru", {2}, CountConfig());
  EXPECT_EQ(refilled.results[0].hits, 1u);
  ExpectOnePassMatchesBrute(refill, "lru", {1, 2, 3, 4}, CountConfig(), 0.0);
}

TEST(MrcEngineTest, S3FifoWithinPinnedEpsilonOnZipf) {
  for (const uint64_t seed : {5, 13}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "s3fifo", DefaultGrid(), CountConfig(),
                              kS3FifoCurveEpsilon);
  }
}

TEST(MrcEngineTest, S3FifoNonDefaultParams) {
  ExpectOnePassMatchesBrute(MixedZipf(6), "s3fifo", DefaultGrid(),
                            CountConfig("small_ratio=0.25,move_to_main_threshold=1,max_freq=7"),
                            kS3FifoCurveEpsilon);
  ExpectOnePassMatchesBrute(MixedZipf(8), "s3fifo", DefaultGrid(),
                            CountConfig("ghost_ratio=0.5"), kS3FifoCurveEpsilon);
}

TEST(MrcEngineTest, S3FifoDWithinPinnedEpsilonOnZipf) {
  for (const uint64_t seed : {9, 17}) {
    ExpectOnePassMatchesBrute(MixedZipf(seed), "s3fifo-d", DefaultGrid(), CountConfig(),
                              kS3FifoCurveEpsilon);
  }
}

TEST(MrcEngineTest, S3FifoDAggressiveAdaptation) {
  // Low rebalance threshold + large steps makes the adaptive state machine
  // fire constantly, exercising MaybeRebalance at every grid size.
  ExpectOnePassMatchesBrute(MixedZipf(10), "s3fifo-d", DefaultGrid(),
                            CountConfig("adapt_min_hits=5,adapt_step_ratio=0.05"),
                            kS3FifoCurveEpsilon);
}

// Ghost-in-word edge cases: S3-FIFO's ghosts live in the non-resident
// per-size words (flags in bits 28-30, stamp below), so the freq field width,
// the ghost sizes relative to the cache, and stamp/ring churn all move the
// layout's boundaries.
TEST(MrcEngineTest, S3FifoGhostInWordFreqFieldExtremes) {
  for (const std::string policy : {"s3fifo", "s3fifo-d"}) {
    // max_freq=1: a one-bit freq field; max_freq=255: an eight-bit field and
    // the narrowest (22-bit) stamp.
    for (const char* params : {"max_freq=1", "max_freq=255,move_to_main_threshold=3"}) {
      ExpectOnePassMatchesBrute(MixedZipf(31), policy, DefaultGrid(), CountConfig(params),
                                kS3FifoCurveEpsilon);
    }
  }
}

TEST(MrcEngineTest, S3FifoGhostInWordGhostRatios) {
  for (const std::string policy : {"s3fifo", "s3fifo-d"}) {
    for (const char* params : {"ghost_ratio=0.01", "ghost_ratio=2.0"}) {
      ExpectOnePassMatchesBrute(MixedZipf(32), policy, DefaultGrid(), CountConfig(params),
                                kS3FifoCurveEpsilon);
    }
  }
  // Shadows five times larger than G: an object's small-evicted shadow entry
  // outlives its G entry, so one word carries a shadow flag without G.
  ExpectOnePassMatchesBrute(MixedZipf(33), "s3fifo-d", DefaultGrid(),
                            CountConfig("ghost_ratio=0.05,adapt_ghost_ratio=0.5,adapt_min_hits=10"),
                            kS3FifoCurveEpsilon);
}

TEST(MrcEngineTest, FuzzedTracesOnTinyAndOddGrids) {
  for (const uint64_t seed : {4, 5}) {
    const Trace trace = FuzzTrace(seed);
    for (const std::string policy : {"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"}) {
      ExpectOnePassMatchesBrute(trace, policy, {1, 2, 3, 7, 64, 200}, CountConfig(), 0.0);
    }
    ExpectOnePassMatchesBrute(trace, "s3fifo-d", {1, 2, 3, 7, 64, 200},
                              CountConfig("adapt_min_hits=1,adapt_ghost_ratio=0.5"), 0.0);
  }
}

TEST(MrcEngineTest, S3FifoLongTraceStampAndRingChurn) {
  // Small caches over 400k requests push millions of stamps through each
  // size's counter and compact every ring many times over.
  const Trace trace = MixedZipf(34, 400000);
  for (const std::string policy : {"s3fifo", "s3fifo-d"}) {
    ExpectOnePassMatchesBrute(trace, policy, {2, 5, 40}, CountConfig("adapt_min_hits=2"),
                              kS3FifoCurveEpsilon);
  }
}

TEST(MrcEngineTest, ScanAndLoopWorkloads) {
  const Trace scan = GenerateSequentialScan(20000);
  const Trace loop = GenerateLoop(700, 40000);
  const Trace twohit = GenerateTwoHitPattern(5000, 300);
  for (const std::string policy : {"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"}) {
    ExpectOnePassMatchesBrute(scan, policy, {64, 256, 1024}, CountConfig(), 0.0);
    ExpectOnePassMatchesBrute(loop, policy, {100, 350, 700, 1400}, CountConfig(), 0.0);
    ExpectOnePassMatchesBrute(twohit, policy, {64, 600, 1200}, CountConfig(), 0.0);
  }
}

TEST(MrcEngineTest, DatasetProfileWorkload) {
  const DatasetProfile& d = AllDatasetProfiles().front();
  const Trace trace = GenerateDatasetTrace(d, 0, 0.03);
  const uint64_t footprint = trace.Stats().num_objects;
  const std::vector<uint64_t> sizes = {footprint / 100 + 1, footprint / 10 + 1, footprint / 3 + 1};
  for (const std::string policy : {"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"}) {
    ExpectOnePassMatchesBrute(trace, policy, sizes, CountConfig(),
                              policy.rfind("s3fifo", 0) == 0 ? kS3FifoCurveEpsilon : 0.0);
  }
}

TEST(MrcEngineTest, FuzzedTracesWithDeletesAndSets) {
  for (const uint64_t seed : {1, 2, 3}) {
    const Trace trace = FuzzTrace(seed);
    for (const std::string policy : {"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"}) {
      ExpectOnePassMatchesBrute(trace, policy, {8, 32, 128, 512}, CountConfig(), 0.0);
    }
  }
}

TEST(MrcEngineTest, DegenerateGrids) {
  const Trace trace = MixedZipf(21, 20000);
  const uint64_t footprint = TraceView::Borrow(trace).stats().num_objects;
  for (const std::string policy : {"fifo", "clock", "sieve", "lru"}) {
    // Size 1: every eviction decision happens on every request.
    ExpectOnePassMatchesBrute(trace, policy, {1}, CountConfig(), 0.0);
    // Larger than the footprint: no evictions, pure cold misses.
    ExpectOnePassMatchesBrute(trace, policy, {4 * footprint}, CountConfig(), 0.0);
    // Single-element and duplicate-entry grids.
    ExpectOnePassMatchesBrute(trace, policy, {97}, CountConfig(), 0.0);
    ExpectOnePassMatchesBrute(trace, policy, {64, 64, 16, 64, 16}, CountConfig(), 0.0);
  }
  // The s3fifo variants need capacity >= 2 for a meaningful small/main split
  // but must still agree on footprint-dwarfing and duplicated sizes.
  for (const std::string policy : {"s3fifo", "s3fifo-d"}) {
    ExpectOnePassMatchesBrute(trace, policy, {4 * footprint}, CountConfig(),
                              kS3FifoCurveEpsilon);
    ExpectOnePassMatchesBrute(trace, policy, {64, 64, 16, 64, 16}, CountConfig(),
                              kS3FifoCurveEpsilon);
  }
}

TEST(MrcEngineTest, UnsortedGridKeepsRequestedOrder) {
  const Trace trace = MixedZipf(22, 20000);
  const std::vector<uint64_t> sizes = {512, 16, 128, 16};
  const MrcCurve curve = OnePassMrc(TraceView::Borrow(trace), "fifo", sizes, CountConfig());
  ASSERT_EQ(curve.sizes, sizes);
  ASSERT_EQ(curve.results.size(), sizes.size());
  // Duplicate entries carry identical results; order matches the request.
  EXPECT_EQ(curve.results[1].misses, curve.results[3].misses);
  EXPECT_GE(curve.results[1].misses, curve.results[0].misses);  // 16 misses more than 512
}

TEST(MrcEngineTest, WarmupExclusionMatchesBrute) {
  const Trace trace = MixedZipf(25, 30000);
  for (const std::string policy : {"fifo", "sieve", "lru", "s3fifo"}) {
    ExpectOnePassMatchesBrute(trace, policy, {32, 256, 1024}, CountConfig(), 0.0,
                              /*warmup=*/10000);
  }
}

TEST(MrcEngineTest, GridWiderThanOnePassChunk) {
  // 70 distinct sizes forces two 64-wide passes; results must still line up
  // with brute force entry for entry.
  const Trace trace = MixedZipf(26, 15000);
  std::vector<uint64_t> sizes;
  for (uint64_t s = 1; s <= 70; ++s) {
    sizes.push_back(s * 13);
  }
  ExpectOnePassMatchesBrute(trace, "fifo", sizes, CountConfig(), 0.0);
  ExpectOnePassMatchesBrute(trace, "lru", sizes, CountConfig(), 0.0);
  ExpectOnePassMatchesBrute(trace, "s3fifo", sizes, CountConfig(), kS3FifoCurveEpsilon);
}

TEST(MrcEngineTest, SupportsMatrix) {
  EXPECT_TRUE(MrcEngineSupports("fifo", CountConfig()));
  EXPECT_TRUE(MrcEngineSupports("clock", CountConfig("bits=8")));
  EXPECT_TRUE(MrcEngineSupports("sieve", CountConfig()));
  EXPECT_TRUE(MrcEngineSupports("lru", CountConfig()));
  EXPECT_TRUE(MrcEngineSupports("s3fifo", CountConfig()));
  EXPECT_TRUE(MrcEngineSupports("s3fifo-d", CountConfig("adapt_min_hits=10")));

  EXPECT_FALSE(MrcEngineSupports("arc", CountConfig()));
  EXPECT_FALSE(MrcEngineSupports("s3fifo", CountConfig("ghost_type=table")));
  EXPECT_FALSE(MrcEngineSupports("s3fifo", CountConfig("small_lru=1")));
  EXPECT_FALSE(MrcEngineSupports("s3fifo", CountConfig("main_lru=1")));
  EXPECT_FALSE(MrcEngineSupports("s3fifo", CountConfig("main_sieve=1")));
  CacheConfig byte_config = CountConfig();
  byte_config.count_based = false;
  EXPECT_FALSE(MrcEngineSupports("fifo", byte_config));
  EXPECT_FALSE(MrcEngineSupports("lru", byte_config));
}

TEST(MrcEngineTest, OnePassThrowsOnUnsupportedOrBadGrid) {
  const Trace trace = MixedZipf(27, 1000);
  const TraceView view = TraceView::Borrow(trace);
  EXPECT_THROW(OnePassMrc(view, "arc", {16}, CountConfig()), std::invalid_argument);
  EXPECT_THROW(OnePassMrc(view, "fifo", {16, 0, 64}, CountConfig()), std::invalid_argument);
}

// The multi-policy call shares one interning of the trace; every curve must
// equal what a call for that policy alone returns, params and warmup
// included, and an unsupported entry must fail the whole call.
TEST(MrcEngineTest, MultiPolicyCallEqualsOneCallPerPolicy) {
  const Trace trace = MixedZipf(31, 20000);
  const TraceView view = TraceView::Borrow(trace);
  const std::vector<uint64_t> sizes = {512, 16, 128, 16};
  const std::vector<MrcPolicy> policies = {{"fifo", CountConfig()},
                                           {"clock", CountConfig("bits=2")},
                                           {"lru", CountConfig()},
                                           {"s3fifo", CountConfig()},
                                           {"s3fifo-d", CountConfig("adapt_min_hits=10")}};
  const std::vector<MrcCurve> curves = OnePassMrc(view, policies, sizes, /*warmup_requests=*/500);
  ASSERT_EQ(curves.size(), policies.size());
  for (size_t p = 0; p < policies.size(); ++p) {
    const MrcCurve alone = OnePassMrc(view, policies[p].policy, sizes, policies[p].config, 500);
    EXPECT_EQ(curves[p].policy, policies[p].policy);
    EXPECT_EQ(curves[p].sizes, sizes);
    ASSERT_EQ(curves[p].results.size(), sizes.size());
    for (size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(curves[p].results[i].hits, alone.results[i].hits) << policies[p].policy;
      EXPECT_EQ(curves[p].results[i].misses, alone.results[i].misses) << policies[p].policy;
      EXPECT_EQ(curves[p].results[i].bytes_missed, alone.results[i].bytes_missed)
          << policies[p].policy;
    }
  }
  EXPECT_TRUE(OnePassMrc(view, std::vector<MrcPolicy>{}, sizes).empty());
  EXPECT_THROW(OnePassMrc(view, {{"fifo", CountConfig()}, {"arc", CountConfig()}}, sizes),
               std::invalid_argument);
}

TEST(MrcEngineTest, ParseMrcModeRoundTrip) {
  EXPECT_EQ(ParseMrcMode("onepass"), MrcMode::kAuto);
  EXPECT_EQ(ParseMrcMode("brute"), MrcMode::kBrute);
  EXPECT_THROW(ParseMrcMode("shards"), std::invalid_argument);
}

// Miss ratio against cache size on a plain Zipf trace (no sets or deletes).
Trace BigZipf(uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 5000;
  c.num_requests = 100000;
  c.alpha = 1.0;
  c.seed = seed;
  return GenerateZipfTrace(c);
}

TEST(MrcEngineTest, LruCurveIsMonotone) {
  const Trace t = BigZipf(2);
  const MrcCurve curve =
      OnePassMrc(TraceView::Borrow(t), "lru", {25, 50, 100, 200, 400, 800}, CountConfig());
  for (size_t i = 1; i < curve.results.size(); ++i) {
    EXPECT_LE(curve.results[i].misses, curve.results[i - 1].misses);
  }
}

TEST(MrcEngineTest, S3FifoCurveBelowFifoCurve) {
  const Trace t = BigZipf(3);
  const TraceView view = TraceView::Borrow(t);
  const std::vector<uint64_t> sizes = {50, 100, 200, 400};
  const MrcCurve fifo = OnePassMrc(view, "fifo", sizes, CountConfig());
  const MrcCurve s3 = OnePassMrc(view, "s3fifo", sizes, CountConfig());
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_LE(s3.results[i].MissRatio(), fifo.results[i].MissRatio() + 0.01) << sizes[i];
  }
}

TEST(MrcEngineTest, DifferentialWallBites) {
  // Sanity-check the comparator itself: a curve from a *different* policy
  // must NOT pass the equality gauntlet — i.e. the test wall can fail.
  // (A pure loop won't do: fifo and sieve both miss 100% there. A zipf mix
  // separates them through sieve's visited bits.)
  const Trace trace = MixedZipf(29, 30000);
  const TraceView view = TraceView::Borrow(trace);
  const MrcCurve fifo = OnePassMrc(view, "fifo", {100}, CountConfig());
  const std::vector<SimResult> sieve = ComputeMrcResults(view, "sieve", {100}, CountConfig());
  EXPECT_NE(fifo.results[0].misses, sieve[0].misses);
}

}  // namespace
}  // namespace s3fifo
