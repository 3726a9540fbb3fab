// Heavier mixed-operation stress for the sharded concurrent caches,
// intended to run under ThreadSanitizer (ctest label "concurrent"; folded
// into tier1 when S3FIFO_STRESS_TIER1=ON, which the tsan preset sets).
//
// Each prototype is hammered by >= 4 threads mixing three access patterns —
// zipf-skewed gets (hit-heavy), a sequential scan (miss/evict-heavy), and
// same-key storms (insert-race-heavy) — then checked for bounded occupancy,
// exact request accounting, and post-stress usability.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_lru.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/concurrent_tinylfu.h"
#include "src/concurrent/ebr.h"
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

class ShardedStressTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedStressTest, MixedOpsManyThreads) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 1024;
  config.value_size = 24;  // deliberately not a multiple of 8
  auto cache = MakeCache(GetParam(), config);

  constexpr int kThreads = 6;
  constexpr uint64_t kOpsPerThread = 20000;
  std::atomic<uint64_t> total_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(9000 + t);
      ZipfDistribution zipf(20000, 1.0);
      uint64_t local_hits = 0;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        uint64_t id;
        switch (i % 4) {
          case 0:
          case 1:
            id = zipf.Sample(rng);  // skewed, hit-heavy
            break;
          case 2:
            id = 1'000'000 + (t * kOpsPerThread + i);  // scan, evict-heavy
            break;
          default:
            id = i % 4 + t % 2;  // same-key storm across threads
            break;
        }
        if (cache->Get(id)) {
          ++local_hits;
        }
      }
      total_hits.fetch_add(local_hits);
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_GT(total_hits.load(), 0u);
  // A miss makes room and links under its shard's lock, so occupancy never
  // exceeds capacity, even while other threads are mid-admission.
  EXPECT_LE(cache->ApproxSize(), config.capacity_objects);
  const ConcurrentCacheStats stats = cache->Stats();
  EXPECT_EQ(stats.hits, total_hits.load());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);

  // Post-stress single-thread sanity: cache still admits and serves.
  cache->Get(1u << 30);
  EXPECT_TRUE(cache->Get(1u << 30));
}

TEST_P(ShardedStressTest, ChurnThenDrainReclaimsWithoutCrashing) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 256;
  config.value_size = 8;
  auto cache = MakeCache(GetParam(), config);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All-miss churn: maximum eviction + EBR retire pressure.
      for (uint64_t i = 0; i < 8000; ++i) {
        cache->Get((static_cast<uint64_t>(t) << 40) + i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_LE(cache->ApproxSize(), config.capacity_objects);
  EbrDomain::Instance().ReclaimAll();
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ShardedStressTest,
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

}  // namespace
}  // namespace s3fifo
