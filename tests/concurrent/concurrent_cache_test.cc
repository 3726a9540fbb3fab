// Correctness of the four concurrent caches: single-thread semantics plus
// multi-thread stress (bounded occupancy, no crashes, sane hit counting).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_lru.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/concurrent_tinylfu.h"
#include "src/core/cache_factory.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace {

std::unique_ptr<ConcurrentCache> MakeCache(const std::string& kind,
                                           const ConcurrentCacheConfig& config) {
  if (kind == "lru-strict") {
    return std::make_unique<ConcurrentLruStrict>(config);
  }
  if (kind == "lru-optimized") {
    return std::make_unique<ConcurrentLruOptimized>(config);
  }
  if (kind == "clock") {
    return std::make_unique<ConcurrentClock>(config);
  }
  if (kind == "tinylfu") {
    return std::make_unique<ConcurrentTinyLfu>(config);
  }
  return std::make_unique<ConcurrentS3Fifo>(config);
}

class ConcurrentCacheTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentCacheTest, MissThenHitSingleThread) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 128;
  auto cache = MakeCache(GetParam(), config);
  EXPECT_FALSE(cache->Get(42));
  EXPECT_TRUE(cache->Get(42));
  EXPECT_TRUE(cache->Get(42));
}

TEST_P(ConcurrentCacheTest, BoundedOccupancySingleThread) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 64;
  auto cache = MakeCache(GetParam(), config);
  for (uint64_t i = 0; i < 10000; ++i) {
    cache->Get(i % 500);
  }
  EXPECT_LE(cache->ApproxSize(), 64u + 4);  // small transient slack allowed
}

TEST_P(ConcurrentCacheTest, HotSetConvergesToHits) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 256;
  auto cache = MakeCache(GetParam(), config);
  uint64_t hits = 0;
  const uint64_t rounds = 200;
  for (uint64_t round = 0; round < rounds; ++round) {
    for (uint64_t id = 0; id < 32; ++id) {
      if (cache->Get(id)) {
        ++hits;
      }
    }
  }
  EXPECT_GT(hits, rounds * 32 * 8 / 10);
}

TEST_P(ConcurrentCacheTest, MultiThreadStress) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 512;
  config.value_size = 32;
  auto cache = MakeCache(GetParam(), config);
  constexpr int kThreads = 4;
  constexpr uint64_t kOps = 50000;
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      ZipfDistribution zipf(5000, 1.0);
      uint64_t local_hits = 0;
      for (uint64_t i = 0; i < kOps; ++i) {
        if (cache->Get(zipf.Sample(rng))) {
          ++local_hits;
        }
      }
      hits.fetch_add(local_hits);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_GT(hits.load(), 0u);
  EXPECT_LE(cache->ApproxSize(), 512u + kThreads);
  // Post-stress single-thread sanity: the cache still works.
  cache->Get(1 << 30);
  EXPECT_TRUE(cache->Get(1 << 30));
}

// Regression for an OOB read: values smaller than 8 bytes used to be read
// with an unconditional 8-byte memcpy. ASan/valgrind would flag the
// overread; here we just exercise the path for every prototype.
TEST_P(ConcurrentCacheTest, SmallValuesAreReadSafely) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 32;
  config.value_size = 3;  // smaller than the 8-byte read window
  auto cache = MakeCache(GetParam(), config);
  for (uint64_t i = 0; i < 500; ++i) {
    cache->Get(i % 40);
  }
  EXPECT_TRUE(cache->Get(1));
}

TEST_P(ConcurrentCacheTest, StatsCountEveryRequest) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 64;
  auto cache = MakeCache(GetParam(), config);
  constexpr uint64_t kRequests = 5000;
  uint64_t observed_hits = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    if (cache->Get(i % 100)) {
      ++observed_hits;
    }
  }
  const ConcurrentCacheStats stats = cache->Stats();
  EXPECT_EQ(stats.hits, observed_hits);
  EXPECT_EQ(stats.hits + stats.misses, kRequests);
}

TEST_P(ConcurrentCacheTest, ConcurrentSameKeyInsertRace) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 64;
  auto cache = MakeCache(GetParam(), config);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t round = 0; round < 2000; ++round) {
        cache->Get(round % 8);  // heavy same-key contention
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_LE(cache->ApproxSize(), 64u + kThreads);
  EXPECT_TRUE(cache->Get(3));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ConcurrentCacheTest,
                         ::testing::Values("lru-strict", "lru-optimized", "clock", "tinylfu",
                                           "s3fifo"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ConcurrentS3FifoTest, HitPathDoesNotMutateQueues) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 100;
  ConcurrentS3Fifo cache(config);
  cache.Get(1);
  const uint64_t size_after_insert = cache.ApproxSize();
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cache.Get(1));
  }
  EXPECT_EQ(cache.ApproxSize(), size_after_insert);
}

// A zero capacity used to abort the caller with an uncaught length_error.
TEST(ConcurrentS3FifoTest, ZeroCapacityThrowsInvalidArgument) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 0;
  EXPECT_THROW(ConcurrentS3Fifo cache(config), std::invalid_argument);
}

// §5.3: "we verified that the miss ratio results from the prototype are
// consistent with the simulator". Replay the same request stream through
// the concurrent prototype (single-threaded, so the comparison is
// deterministic) and the simulator policy.
TEST(PrototypeConsistencyTest, S3FifoPrototypeMatchesSimulator) {
  constexpr uint64_t kObjects = 20000;
  constexpr uint64_t kRequests = 200000;
  constexpr uint64_t kCapacity = 2000;

  ConcurrentCacheConfig cc;
  cc.capacity_objects = kCapacity;
  cc.value_size = 16;
  cc.cache_shards = 1;  // unsharded: decision sequence matches the simulator
  ConcurrentS3Fifo prototype(cc);

  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";  // the prototype uses the fingerprint table
  auto simulated = CreateCache("s3fifo", sc);

  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(31);
  uint64_t proto_hits = 0, sim_hits = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const uint64_t id = zipf.Sample(rng);
    if (prototype.Get(id)) {
      ++proto_hits;
    }
    Request r;
    r.id = id;
    if (simulated->Get(r)) {
      ++sim_hits;
    }
  }
  const double proto_mr = 1.0 - static_cast<double>(proto_hits) / kRequests;
  const double sim_mr = 1.0 - static_cast<double>(sim_hits) / kRequests;
  EXPECT_NEAR(proto_mr, sim_mr, 0.01);
}

TEST(PrototypeConsistencyTest, ClockPrototypeMatchesSimulator) {
  constexpr uint64_t kObjects = 20000;
  constexpr uint64_t kRequests = 200000;
  constexpr uint64_t kCapacity = 2000;

  ConcurrentCacheConfig cc;
  cc.capacity_objects = kCapacity;
  cc.value_size = 16;
  cc.cache_shards = 1;  // unsharded: decision sequence matches the simulator
  ConcurrentClock prototype(cc);

  CacheConfig sc;
  sc.capacity = kCapacity;
  auto simulated = CreateCache("clock", sc);

  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(33);
  uint64_t proto_hits = 0, sim_hits = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const uint64_t id = zipf.Sample(rng);
    if (prototype.Get(id)) {
      ++proto_hits;
    }
    Request r;
    r.id = id;
    if (simulated->Get(r)) {
      ++sim_hits;
    }
  }
  const double proto_mr = 1.0 - static_cast<double>(proto_hits) / kRequests;
  const double sim_mr = 1.0 - static_cast<double>(sim_hits) / kRequests;
  EXPECT_NEAR(proto_mr, sim_mr, 0.01);
}

// Sharding determinism: a single-threaded replay through the sharded cache
// must land within a small tolerance of the unsharded (shards=1) hit ratio —
// hash partitioning redistributes capacity but must not change behaviour
// qualitatively.
TEST(PrototypeConsistencyTest, ShardedReplayMatchesUnsharded) {
  constexpr uint64_t kObjects = 20000;
  constexpr uint64_t kRequests = 200000;
  constexpr uint64_t kCapacity = 2000;

  ConcurrentCacheConfig sharded_cfg;
  sharded_cfg.capacity_objects = kCapacity;
  sharded_cfg.value_size = 16;
  sharded_cfg.cache_shards = 8;
  ConcurrentS3Fifo sharded(sharded_cfg);

  ConcurrentCacheConfig flat_cfg = sharded_cfg;
  flat_cfg.cache_shards = 1;
  ConcurrentS3Fifo flat(flat_cfg);

  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(47);
  uint64_t sharded_hits = 0, flat_hits = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const uint64_t id = zipf.Sample(rng);
    if (sharded.Get(id)) {
      ++sharded_hits;
    }
    if (flat.Get(id)) {
      ++flat_hits;
    }
  }
  const double sharded_ratio = static_cast<double>(sharded_hits) / kRequests;
  const double flat_ratio = static_cast<double>(flat_hits) / kRequests;
  EXPECT_NEAR(sharded_ratio, flat_ratio, 0.02);
}

TEST(ConcurrentClockTest, RefBitGivesSecondChance) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 3;
  ConcurrentClock cache(config);
  cache.Get(1);
  cache.Get(2);
  cache.Get(3);
  cache.Get(1);  // ref bit set
  cache.Get(4);  // clock sweep: 1 spared
  EXPECT_TRUE(cache.Get(1));
}

}  // namespace
}  // namespace s3fifo
