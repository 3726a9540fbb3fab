// Property suite run against EVERY registered policy: capacity invariants,
// determinism, delete handling, presence consistency, and basic sanity of
// hit accounting — on count-based and byte-based configurations.
#include <gtest/gtest.h>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/next_access.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Trace MixedTrace(uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 500;
  c.num_requests = 20000;
  c.alpha = 0.9;
  c.write_fraction = 0.1;
  c.delete_fraction = 0.03;
  c.scan_fraction = 0.001;
  c.scan_length = 100;
  c.new_object_fraction = 0.02;
  c.seed = seed;
  Trace t = GenerateZipfTrace(c);
  AnnotateNextAccess(t);
  return t;
}

Trace SizedTrace(uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 400;
  c.num_requests = 15000;
  c.alpha = 1.0;
  c.size_sigma = 1.5;
  c.size_mean_bytes = 4096;
  c.size_min_bytes = 64;
  c.size_max_bytes = 1 << 16;
  c.write_fraction = 0.05;
  c.delete_fraction = 0.02;
  c.seed = seed;
  Trace t = GenerateZipfTrace(c);
  AnnotateNextAccess(t);
  return t;
}

class PolicyPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Cache> Make(uint64_t capacity, bool count_based = true,
                              const std::string& params = "") {
    CacheConfig config;
    config.capacity = capacity;
    config.count_based = count_based;
    config.params = params;
    config.seed = 42;
    return CreateCache(GetParam(), config);
  }
};

TEST_P(PolicyPropertyTest, OccupancyNeverExceedsCapacityCountMode) {
  Trace t = MixedTrace(1);
  auto cache = Make(50);
  for (const Request& r : t.requests()) {
    cache->Get(r);
    ASSERT_LE(cache->occupied(), cache->capacity());
  }
}

TEST_P(PolicyPropertyTest, OccupancyNeverExceedsCapacityByteMode) {
  Trace t = SizedTrace(2);
  auto cache = Make(256 * 1024, /*count_based=*/false);
  for (const Request& r : t.requests()) {
    cache->Get(r);
    ASSERT_LE(cache->occupied(), cache->capacity());
  }
}

TEST_P(PolicyPropertyTest, DeterministicAcrossRuns) {
  Trace t = MixedTrace(3);
  auto a = Make(64);
  auto b = Make(64);
  const SimResult ra = Simulate(t, *a);
  const SimResult rb = Simulate(t, *b);
  EXPECT_EQ(ra.hits, rb.hits);
  EXPECT_EQ(ra.misses, rb.misses);
}

TEST_P(PolicyPropertyTest, MissRatioIsInUnitInterval) {
  Trace t = MixedTrace(4);
  auto cache = Make(100);
  const SimResult r = Simulate(t, *cache);
  EXPECT_GE(r.MissRatio(), 0.0);
  EXPECT_LE(r.MissRatio(), 1.0);
  EXPECT_EQ(r.hits + r.misses, r.requests);
}

TEST_P(PolicyPropertyTest, ColdMissesAtLeastUniqueObjects) {
  Trace t = MixedTrace(5);
  auto cache = Make(100);
  const SimResult r = Simulate(t, *cache);
  EXPECT_GE(r.misses, t.Stats().num_objects);
}

TEST_P(PolicyPropertyTest, GetAgreesWithContains) {
  Trace t = MixedTrace(6);
  auto cache = Make(64);
  for (const Request& r : t.requests()) {
    const bool resident = cache->Contains(r.id);
    const bool hit = cache->Get(r);
    if (r.op == OpType::kDelete) {
      ASSERT_FALSE(hit);
      ASSERT_FALSE(cache->Contains(r.id));
    } else {
      ASSERT_EQ(hit, resident) << "Get() and Contains() disagree";
    }
  }
}

TEST_P(PolicyPropertyTest, DeleteRemovesResidency) {
  auto cache = Make(16);
  Request get;
  get.id = 99;
  cache->Get(get);
  if (cache->Contains(99)) {  // admission policies may not cache first touch
    Request del;
    del.id = 99;
    del.op = OpType::kDelete;
    cache->Get(del);
    EXPECT_FALSE(cache->Contains(99));
  }
}

TEST_P(PolicyPropertyTest, DeleteOfAbsentIdIsSafe) {
  auto cache = Make(16);
  Request del;
  del.id = 12345;
  del.op = OpType::kDelete;
  EXPECT_FALSE(cache->Get(del));
  EXPECT_LE(cache->occupied(), cache->capacity());
}

TEST_P(PolicyPropertyTest, RepeatedRequestEventuallyHits) {
  auto cache = Make(32);
  Request r;
  r.id = 7;
  bool hit = false;
  for (int i = 0; i < 4 && !hit; ++i) {
    hit = cache->Get(r);
  }
  // Every policy (including Bloom-filter admission, which needs two touches)
  // must serve a hot object from cache within a few back-to-back requests.
  EXPECT_TRUE(hit);
}

TEST_P(PolicyPropertyTest, PureScanYieldsNoHits) {
  Trace t = GenerateSequentialScan(5000);
  AnnotateNextAccess(t);
  auto cache = Make(100);
  const SimResult r = Simulate(t, *cache);
  EXPECT_EQ(r.hits, 0u);
}

TEST_P(PolicyPropertyTest, CapacityOneDoesNotCrash) {
  Trace t = MixedTrace(7);
  auto cache = Make(1);
  const SimResult r = Simulate(t, *cache);
  EXPECT_LE(cache->occupied(), 1u);
  EXPECT_GE(r.misses, 1u);
}

TEST_P(PolicyPropertyTest, TinyCapacityByteModeWithHugeObjects) {
  // Objects larger than the whole cache must be bypassed, not crash.
  auto cache = Make(1000, /*count_based=*/false);
  Request r;
  r.id = 1;
  r.size = 5000;
  EXPECT_FALSE(cache->Get(r));
  EXPECT_FALSE(cache->Get(r));  // still a miss: never admitted
  EXPECT_EQ(cache->occupied(), 0u);
}

TEST_P(PolicyPropertyTest, EvictionsNeverExceedAdmissions) {
  Trace t = MixedTrace(8);
  auto cache = Make(40);
  uint64_t evictions = 0;
  cache->set_eviction_listener([&](const EvictionEvent&) { ++evictions; });
  const SimResult r = Simulate(t, *cache);
  EXPECT_LE(evictions, r.misses + t.Stats().num_deletes);
}

TEST_P(PolicyPropertyTest, EvictionEventsCarrySaneTimes) {
  Trace t = MixedTrace(9);
  auto cache = Make(40);
  cache->set_eviction_listener([&](const EvictionEvent& ev) {
    ASSERT_LE(ev.insert_time, ev.evict_time);
    ASSERT_LE(ev.last_access_time, ev.evict_time);
    ASSERT_LE(ev.insert_time, ev.last_access_time);
  });
  Simulate(t, *cache);
}

TEST_P(PolicyPropertyTest, HotWorkingSetFitsEntirely) {
  // A working set smaller than the cache must converge to ~100% hits.
  Trace warm = GenerateLoop(20, 5000);
  AnnotateNextAccess(warm);
  auto cache = Make(64);
  SimOptions options;
  options.warmup_requests = 1000;
  const SimResult r = Simulate(warm, *cache, options);
  EXPECT_GT(static_cast<double>(r.hits) / r.requests, 0.95) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertyTest,
                         ::testing::ValuesIn(AllCacheNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace s3fifo
