// S3-FIFO-D (§6.2.2): adaptive queue sizing.
#include "src/policies/s3fifo_d.h"

#include <gtest/gtest.h>

#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// Two-hit pattern interleaved with a persistent hot set, preceded by a
// warmup that fills M so S sits pinned at its target (see s3fifo_test.cc for
// the rationale). Designed for a cache of 200 objects.
Trace AdversarialMix(uint64_t num_objects, uint64_t lag) {
  constexpr uint64_t kHotSet = 60;
  constexpr uint64_t kWarmObjects = 400;
  std::vector<Request> out;
  for (uint64_t w = 0; w < kWarmObjects; ++w) {
    for (int rep = 0; rep < 3; ++rep) {
      out.push_back({.id = (1ULL << 51) + w});
    }
  }
  Trace twohit = GenerateTwoHitPattern(num_objects, lag);
  uint64_t hot = 0;
  for (size_t i = 0; i < twohit.size(); ++i) {
    out.push_back(twohit[i]);
    out.push_back({.id = (1ULL << 50) + (hot++ % kHotSet)});
  }
  return Trace(std::move(out), "adversarial_mix");
}

TEST(S3FifoDTest, BehavesLikeS3FifoWhenBalanced) {
  // On a friendly skewed workload the adaptive variant should stay close to
  // static S3-FIFO (§6.2.2: "S3-FIFO is better than S3-FIFO-D on most
  // traces" — i.e. they are close, adaptation rarely helps).
  ZipfWorkloadConfig zc;
  zc.num_objects = 1500;
  zc.num_requests = 50000;
  zc.alpha = 1.0;
  zc.seed = 1;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 150;
  auto s3 = CreateCache("s3fifo", config);
  auto s3d = CreateCache("s3fifo-d", config);
  const double mr_static = Simulate(t, *s3).MissRatio();
  const double mr_dynamic = Simulate(t, *s3d).MissRatio();
  EXPECT_NEAR(mr_static, mr_dynamic, 0.05);
}

TEST(S3FifoDTest, GrowsSmallQueueOnAdversarialTwoHitPattern) {
  // Objects re-requested just outside S: the misses land in the S-eviction
  // adaptation ghost, so S should be enlarged (mitigating the §5.2
  // adversarial pattern). The adaptation ghosts are enlarged from the 5%
  // default so the reuse distance of the pattern falls inside their window.
  Trace t = AdversarialMix(20000, 30);
  CacheConfig config;
  config.capacity = 200;  // static S=20
  config.params = "adapt_ghost_ratio=0.5";
  S3FifoDCache s3d(config);
  const uint64_t initial_target = s3d.small_target();
  Simulate(t, s3d);
  EXPECT_GT(s3d.adaptations(), 0u);
  EXPECT_GT(s3d.small_target(), initial_target);
}

TEST(S3FifoDTest, AdaptationImprovesAdversarialMissRatio) {
  Trace t = AdversarialMix(20000, 30);
  CacheConfig config;
  config.capacity = 200;
  auto s3 = CreateCache("s3fifo", config);
  config.params = "adapt_ghost_ratio=0.5";
  auto s3d = CreateCache("s3fifo-d", config);
  const double mr_static = Simulate(t, *s3).MissRatio();
  const double mr_dynamic = Simulate(t, *s3d).MissRatio();
  EXPECT_LT(mr_dynamic, mr_static);
}

TEST(S3FifoDTest, TargetStaysWithinBounds) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 1000;
  zc.num_requests = 60000;
  zc.alpha = 0.7;
  zc.new_object_fraction = 0.2;
  zc.seed = 5;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 100;
  config.params = "adapt_ghost_ratio=0.5,adapt_min_hits=20";
  S3FifoDCache s3d(config);
  for (const Request& r : t.requests()) {
    s3d.Get(r);
    ASSERT_GE(s3d.small_target(), 1u);
    ASSERT_LT(s3d.small_target(), 100u);
    ASSERT_LE(s3d.occupied(), 100u);
  }
}

TEST(S3FifoDTest, CustomAdaptationParamsRespected) {
  CacheConfig config;
  config.capacity = 200;
  config.params = "adapt_ghost_ratio=0.4,adapt_min_hits=10,adapt_step_ratio=0.01";
  S3FifoDCache s3d(config);
  Trace t = AdversarialMix(20000, 50);
  Simulate(t, s3d);
  // Lower trigger + bigger steps => adapts much more aggressively.
  EXPECT_GT(s3d.adaptations(), 5u);
}

TEST(S3FifoDTest, CapacityOneKeepsSmallTargetAndMatchesOnePass) {
  // At capacity 1 the adaptive clamp range [1, capacity - 1] is empty: the
  // target must stay at 1 however the shadow ghosts vote, and the cache
  // must agree count-for-count with the one-pass engine, which pins 1.
  ZipfWorkloadConfig zc;
  zc.num_objects = 40;
  zc.num_requests = 20000;
  zc.alpha = 1.2;
  zc.seed = 3;
  const Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 1;
  config.params = "adapt_min_hits=1";
  S3FifoDCache s3d(config);
  for (const Request& r : t.requests()) {
    s3d.Get(r);
    ASSERT_EQ(s3d.small_target(), 1u);
  }
  EXPECT_GT(s3d.adaptations(), 0u);

  S3FifoDCache fresh(config);
  const SimResult sim = Simulate(t, fresh);
  const MrcCurve curve = OnePassMrc(TraceView::Borrow(t), "s3fifo-d", {1}, config);
  EXPECT_EQ(curve.results[0].hits, sim.hits);
  EXPECT_EQ(curve.results[0].misses, sim.misses);
}

}  // namespace
}  // namespace s3fifo
