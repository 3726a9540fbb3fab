#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/multi_sim.h"
#include "src/trace/next_access.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Trace SmallTrace() {
  std::vector<Request> reqs;
  for (uint64_t id : {1, 2, 1, 3, 1, 2}) {
    Request r;
    r.id = id;
    r.size = 100;
    reqs.push_back(r);
  }
  return Trace(std::move(reqs));
}

TEST(SimulatorTest, CountsHitsAndMisses) {
  CacheConfig config;
  config.capacity = 10;
  auto cache = CreateCache("lru", config);
  const SimResult r = Simulate(SmallTrace(), *cache);
  EXPECT_EQ(r.requests, 6u);
  EXPECT_EQ(r.misses, 3u);  // 1, 2, 3 cold
  EXPECT_EQ(r.hits, 3u);
  EXPECT_DOUBLE_EQ(r.MissRatio(), 0.5);
}

TEST(SimulatorTest, ByteMetrics) {
  CacheConfig config;
  config.capacity = 10;
  auto cache = CreateCache("lru", config);
  const SimResult r = Simulate(SmallTrace(), *cache);
  EXPECT_EQ(r.bytes_requested, 600u);
  EXPECT_EQ(r.bytes_missed, 300u);
  EXPECT_DOUBLE_EQ(r.ByteMissRatio(), 0.5);
}

TEST(SimulatorTest, WarmupExcludedFromMetrics) {
  CacheConfig config;
  config.capacity = 10;
  auto cache = CreateCache("lru", config);
  SimOptions options;
  options.warmup_requests = 3;
  const SimResult r = Simulate(SmallTrace(), *cache, options);
  EXPECT_EQ(r.requests, 3u);  // indices 3,4,5
  EXPECT_EQ(r.misses, 1u);    // id 3 cold at index 3
  EXPECT_EQ(r.hits, 2u);
}

TEST(SimulatorTest, DeletesAreNotCounted) {
  std::vector<Request> reqs(3);
  reqs[0].id = 1;
  reqs[1].id = 1;
  reqs[1].op = OpType::kDelete;
  reqs[2].id = 1;
  Trace t(std::move(reqs));
  CacheConfig config;
  config.capacity = 4;
  auto cache = CreateCache("lru", config);
  const SimResult r = Simulate(t, *cache);
  EXPECT_EQ(r.requests, 2u);
  EXPECT_EQ(r.misses, 2u);  // delete purged id 1 in between
}

TEST(SimulatorTest, EmptyTrace) {
  CacheConfig config;
  config.capacity = 4;
  auto cache = CreateCache("fifo", config);
  const SimResult r = Simulate(Trace(), *cache);
  EXPECT_EQ(r.requests, 0u);
  EXPECT_DOUBLE_EQ(r.MissRatio(), 0.0);
}

TEST(SimulatorTest, BeladyWithoutAnnotationThrows) {
  CacheConfig config;
  config.capacity = 4;
  auto cache = CreateCache("belady", config);
  Trace t = SmallTrace();
  EXPECT_THROW(Simulate(t, *cache), std::invalid_argument);
  AnnotateNextAccess(t);
  EXPECT_NO_THROW(Simulate(t, *cache));
}

TEST(SimulatorTest, ZeroCapacityConfigThrows) {
  CacheConfig config;
  config.capacity = 0;
  EXPECT_THROW(CreateCache("lru", config), std::invalid_argument);
}

TEST(SimulatorTest, UnknownPolicyThrows) {
  CacheConfig config;
  config.capacity = 4;
  EXPECT_THROW(CreateCache("no-such-policy", config), std::invalid_argument);
}

TEST(SimulatorTest, LargerCacheNeverHurtsLru) {
  // LRU has the inclusion property: miss count is monotone in cache size.
  ZipfWorkloadConfig zc;
  zc.num_objects = 1000;
  zc.num_requests = 30000;
  zc.alpha = 0.9;
  zc.seed = 13;
  Trace t = GenerateZipfTrace(zc);
  uint64_t prev_misses = ~0ULL;
  for (uint64_t cap : {25, 50, 100, 200, 400}) {
    CacheConfig config;
    config.capacity = cap;
    auto cache = CreateCache("lru", config);
    const SimResult r = Simulate(t, *cache);
    EXPECT_LE(r.misses, prev_misses) << "LRU inclusion property violated at " << cap;
    prev_misses = r.misses;
  }
}

// Simulate and MultiSimulate walk the trace in 65,536-request blocks of
// GetBatch slices. A trace spanning three full blocks plus a partial one,
// with sets, deletes and a warmup that ends mid-block, must give exactly
// what a hand-written Cache::Get loop gives, for a policy with a batched
// override (s3fifo) and one on the default Get fallback (arc).
TEST(SimulatorTest, MatchesScalarGetLoopAcrossBlockEdges) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 20000;
  zc.num_requests = 3 * 65536 + 12345;
  zc.alpha = 0.9;
  zc.write_fraction = 0.1;
  zc.delete_fraction = 0.05;
  zc.size_sigma = 1.0;
  zc.seed = 17;
  const Trace trace = GenerateZipfTrace(zc);
  SimOptions options;
  options.warmup_requests = 65536 + 30000;
  const std::vector<std::string> policies = {"s3fifo", "arc"};
  CacheConfig config;
  config.capacity = 2000;

  std::vector<SimResult> expected;
  for (const std::string& policy : policies) {
    auto cache = CreateCache(policy, config);
    SimResult r;
    for (uint64_t i = 0; i < trace.size(); ++i) {
      const Request& req = trace[i];
      const bool hit = cache->Get(req);
      if (i < options.warmup_requests || req.op == OpType::kDelete) {
        continue;
      }
      ++r.requests;
      r.bytes_requested += req.size;
      if (hit) {
        ++r.hits;
      } else {
        ++r.misses;
        r.bytes_missed += req.size;
      }
    }
    ASSERT_GT(r.hits, 0u) << policy;
    ASSERT_LT(r.bytes_missed, r.bytes_requested) << policy;
    expected.push_back(r);
  }

  auto expect_same = [](const SimResult& got, const SimResult& want, const std::string& what) {
    EXPECT_EQ(got.requests, want.requests) << what;
    EXPECT_EQ(got.hits, want.hits) << what;
    EXPECT_EQ(got.misses, want.misses) << what;
    EXPECT_EQ(got.bytes_requested, want.bytes_requested) << what;
    EXPECT_EQ(got.bytes_missed, want.bytes_missed) << what;
  };
  std::vector<std::unique_ptr<Cache>> caches;
  for (size_t p = 0; p < policies.size(); ++p) {
    auto cache = CreateCache(policies[p], config);
    expect_same(Simulate(trace, *cache, options), expected[p], policies[p]);
    caches.push_back(CreateCache(policies[p], config));
  }
  // Two caches interleave block by block through the same loop.
  const std::vector<SimResult> multi = MultiSimulate(trace, caches, options);
  for (size_t p = 0; p < policies.size(); ++p) {
    expect_same(multi[p], expected[p], policies[p] + "/multi");
  }
}

}  // namespace
}  // namespace s3fifo
