// LRB-lite: the learned time-to-next-access baseline (§5.2.3 comparison).
#include "src/policies/lrb_lite.h"

#include <gtest/gtest.h>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Trace SkewedTrace(uint64_t seed, uint64_t requests = 60000) {
  ZipfWorkloadConfig c;
  c.num_objects = 1000;
  c.num_requests = requests;
  c.alpha = 1.1;
  c.burst_fraction = 0.2;
  c.seed = seed;
  return GenerateZipfTrace(c);
}

TEST(LrbLiteTest, RegisteredInFactory) {
  CacheConfig config;
  config.capacity = 100;
  auto cache = CreateCache("lrb-lite", config);
  EXPECT_EQ(cache->Name(), "lrb-lite");
}

TEST(LrbLiteTest, CapacityRespected) {
  CacheConfig config;
  config.capacity = 64;
  LrbLiteCache cache(config);
  Trace t = SkewedTrace(1);
  for (const Request& r : t.requests()) {
    cache.Get(r);
    ASSERT_LE(cache.occupied(), 64u);
  }
}

TEST(LrbLiteTest, LearnsToBeatFifoOnSkewedTrace) {
  // After online training the model must separate hot (short predicted
  // distance) from cold objects, beating FIFO eviction (which matches random
  // eviction's hit ratio under the independent reference model).
  Trace t = SkewedTrace(2, 80000);
  CacheConfig config;
  config.capacity = 80;
  auto lrb = CreateCache("lrb-lite", config);
  auto fifo = CreateCache("fifo", config);
  SimOptions options;
  options.warmup_requests = 20000;  // let the model converge first
  const double mr_lrb = Simulate(t, *lrb, options).MissRatio();
  const double mr_fifo = Simulate(t, *fifo, options).MissRatio();
  EXPECT_LT(mr_lrb, mr_fifo);
}

TEST(LrbLiteTest, ComparableToS3FifoOnWikimediaLikeTrace) {
  // §5.2.3 compares S3-FIFO with LRB on the Wikimedia traces and finds
  // "similar efficiency". Our linear lite model trails the full GBM
  // slightly; require the absolute miss-ratio gap to stay small and
  // LRB-lite to be at least LRU-level.
  Trace t = GenerateDatasetTrace(DatasetByName("wiki"), 0, 0.5);
  CacheConfig config;
  config.capacity = std::max<uint64_t>(t.Stats().num_objects / 10, 100);
  auto lrb = CreateCache("lrb-lite", config);
  auto s3 = CreateCache("s3fifo", config);
  auto lru = CreateCache("lru", config);
  const double mr_lrb = Simulate(t, *lrb).MissRatio();
  const double mr_s3 = Simulate(t, *s3).MissRatio();
  const double mr_lru = Simulate(t, *lru).MissRatio();
  EXPECT_NEAR(mr_lrb, mr_s3, 0.03);
  EXPECT_LE(mr_lrb, mr_lru + 0.005);
}

TEST(LrbLiteTest, DeterministicForSeed) {
  Trace t = SkewedTrace(5);
  CacheConfig config;
  config.capacity = 100;
  auto a = CreateCache("lrb-lite", config);
  auto b = CreateCache("lrb-lite", config);
  EXPECT_EQ(Simulate(t, *a).hits, Simulate(t, *b).hits);
}

TEST(LrbLiteTest, DeleteSupported) {
  CacheConfig config;
  config.capacity = 16;
  LrbLiteCache cache(config);
  Request r;
  r.id = 9;
  cache.Get(r);
  ASSERT_TRUE(cache.Contains(9));
  r.op = OpType::kDelete;
  cache.Get(r);
  EXPECT_FALSE(cache.Contains(9));
}

TEST(LrbLiteTest, ScanDoesNotCrashOrHit) {
  CacheConfig config;
  config.capacity = 50;
  LrbLiteCache cache(config);
  Trace scan = GenerateSequentialScan(5000);
  const SimResult r = Simulate(scan, cache);
  EXPECT_EQ(r.hits, 0u);
}

}  // namespace
}  // namespace s3fifo
