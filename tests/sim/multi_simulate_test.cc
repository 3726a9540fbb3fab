#include "src/sim/multi_sim.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/next_access.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// A mixed get/set/delete trace exercising every SimResult field (deletes are
// unmeasured, sizes vary so byte counters diverge from request counters).
Trace MakeMixedTrace() {
  ZipfWorkloadConfig cfg;
  cfg.num_objects = 2000;
  cfg.num_requests = 30000;
  cfg.alpha = 1.0;
  cfg.write_fraction = 0.1;
  cfg.delete_fraction = 0.05;
  cfg.size_sigma = 1.0;
  cfg.seed = 9;
  Trace trace = GenerateZipfTrace(cfg);
  AnnotateNextAccess(trace);  // so Belady participates too
  return trace;
}

void ExpectSameResult(const SimResult& a, const SimResult& b, const std::string& what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.bytes_requested, b.bytes_requested) << what;
  EXPECT_EQ(a.bytes_missed, b.bytes_missed) << what;
}

TEST(MultiSimulateTest, BitIdenticalToSequentialSimulateForEveryPolicy) {
  const Trace trace = MakeMixedTrace();
  CacheConfig config;
  config.capacity = 200;

  std::vector<std::unique_ptr<Cache>> caches;
  for (const std::string& name : AllCacheNames()) {
    caches.push_back(CreateCache(name, config));
  }
  const std::vector<SimResult> multi = MultiSimulate(trace, caches);
  ASSERT_EQ(multi.size(), caches.size());

  for (size_t i = 0; i < AllCacheNames().size(); ++i) {
    auto fresh = CreateCache(AllCacheNames()[i], config);
    const SimResult expected = Simulate(trace, *fresh);
    ExpectSameResult(multi[i], expected, AllCacheNames()[i]);
    EXPECT_GT(multi[i].requests, 0u) << AllCacheNames()[i];
  }
}

TEST(MultiSimulateTest, HonorsWarmup) {
  const Trace trace = MakeMixedTrace();
  CacheConfig config;
  config.capacity = 200;
  SimOptions options;
  options.warmup_requests = 10000;

  std::vector<std::unique_ptr<Cache>> caches;
  caches.push_back(CreateCache("s3fifo", config));
  caches.push_back(CreateCache("lru", config));
  const std::vector<SimResult> multi = MultiSimulate(trace, caches, options);

  for (size_t i = 0; i < caches.size(); ++i) {
    auto fresh = CreateCache(i == 0 ? "s3fifo" : "lru", config);
    ExpectSameResult(multi[i], Simulate(trace, *fresh, options), "warmup");
  }
  EXPECT_LT(multi[0].requests, trace.size());
}

TEST(MultiSimulateTest, ThrowsOnUnannotatedBelady) {
  ZipfWorkloadConfig cfg;
  cfg.num_objects = 100;
  cfg.num_requests = 1000;
  Trace trace = GenerateZipfTrace(cfg);  // NOT annotated
  CacheConfig config;
  config.capacity = 50;
  std::vector<std::unique_ptr<Cache>> caches;
  caches.push_back(CreateCache("belady", config));
  EXPECT_THROW(MultiSimulate(trace, caches), std::invalid_argument);
}

TEST(MultiSimulateTest, EmptyCacheSetYieldsNoResults) {
  const Trace trace = MakeMixedTrace();
  const std::vector<std::unique_ptr<Cache>> none;
  EXPECT_TRUE(MultiSimulate(trace, none).empty());
}

}  // namespace
}  // namespace s3fifo
