// Two-tier log-structured flash cache unit tests: tier routing, the ghost
// S->G->M path, deletes, resize, config round-trip, the combined
// device-byte accounting, and the Fig. 9 admission trade-offs on the pure
// segment-FIFO log.
#include "src/flash/log_flash_cache.h"

#include <gtest/gtest.h>

#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Request Get(uint64_t id, uint32_t size) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

Request Set(uint64_t id, uint32_t size) {
  Request r = Get(id, size);
  r.op = OpType::kSet;
  return r;
}

Request Del(uint64_t id) {
  Request r = Get(id, 0);
  r.op = OpType::kDelete;
  return r;
}

LogFlashCacheConfig SmallConfig() {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 100;
  config.log.segment_bytes = 200;
  config.log.num_segments = 4;
  return config;
}

Trace CdnTrace(uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 2000;
  c.num_requests = 40000;
  c.alpha = 0.9;
  c.new_object_fraction = 0.15;
  c.size_sigma = 0.8;
  c.size_mean_bytes = 8192;
  c.seed = seed;
  return GenerateZipfTrace(c);
}

// Fig. 9's flash tier at test scale: 512 KB of DRAM in front of an 8 MB
// pure segment-FIFO log (no GC readmission, so WA == 1).
LogFlashCacheConfig FifoConfig(DramDiscipline discipline) {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 512 << 10;
  config.dram_discipline = discipline;
  config.log.segment_bytes = 256 << 10;
  config.log.num_segments = 32;
  config.log.gc_readmit = false;
  return config;
}

TEST(LogFlashCacheTest, DramEvictionFlowsThroughAdmissionToLog) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  EXPECT_FALSE(cache.Get(Get(1, 50)));  // miss -> DRAM
  EXPECT_TRUE(cache.Get(Get(1, 50)));   // DRAM hit: earns the admission read
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // evicts 1 (1 read -> admitted to the log)
  EXPECT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Get(1, 50)));  // flash hit
  EXPECT_EQ(cache.stats().dram_hits, 1u);
  EXPECT_EQ(cache.stats().log_hits, 1u);
  EXPECT_EQ(cache.log_stats().admitted_bytes, 50u);
}

TEST(LogFlashCacheTest, ObjectLargerThanDramGoesThroughAdmission) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  EXPECT_FALSE(cache.Get(Get(9, 150)));  // larger than DRAM: admitted to the log
  EXPECT_EQ(cache.dram_occupied(), 0u);
  EXPECT_TRUE(cache.log().Contains(9));
  EXPECT_TRUE(cache.Get(Get(9, 150)));
  EXPECT_EQ(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, AdmissionTradesWritesForMisses) {
  // Fig. 9 on the pure segment-FIFO log: probabilistic admission cuts
  // writes but raises the miss ratio; the s3fifo filter cuts writes versus
  // no admission and misses less than probabilistic.
  const Trace t = CdnTrace(2);
  const auto run = [&](DramDiscipline discipline, std::unique_ptr<AdmissionPolicy> admission) {
    LogStructuredFlashCache cache(FifoConfig(discipline), std::move(admission));
    for (const Request& r : t.requests()) {
      cache.Get(r);
    }
    EXPECT_EQ(cache.DeviceBytesWritten(), cache.AdmittedBytes());  // WA == 1
    return std::make_pair(cache.stats().MissRatio(), cache.DeviceBytesWritten());
  };
  const auto [none_miss, none_bytes] = run(DramDiscipline::kLru, std::make_unique<AdmitAll>());
  const auto [prob_miss, prob_bytes] =
      run(DramDiscipline::kLru, std::make_unique<ProbabilisticAdmission>(0.2));
  const auto [s3_miss, s3_bytes] =
      run(DramDiscipline::kSmallFifo, std::make_unique<S3FifoAdmission>(1));
  EXPECT_GT(none_bytes, 3 * prob_bytes);
  EXPECT_LT(none_miss, prob_miss);
  EXPECT_LT(s3_bytes, none_bytes);
  EXPECT_LT(s3_miss, prob_miss);
}

TEST(LogFlashCacheTest, StatsAddUpAndTiersStayWithinCapacity) {
  LogFlashCacheConfig config = FifoConfig(DramDiscipline::kLru);
  config.small_object_threshold = 4096;
  config.set_store.set_bytes = 4096;
  config.set_store.num_sets = 256;
  LogStructuredFlashCache cache(config, std::make_unique<AdmitAll>());
  const Trace t = CdnTrace(5);
  for (const Request& r : t.requests()) {
    cache.Get(r);
    ASSERT_LE(cache.dram_occupied(), config.dram_capacity_bytes);
    ASSERT_LE(cache.log().segments_in_use(), config.log.num_segments);
    ASSERT_LE(cache.log().live_bytes(), cache.log().capacity_bytes());
    ASSERT_LE(cache.sets().live_bytes(), cache.sets().capacity_bytes());
  }
  const LogFlashCacheStats& s = cache.stats();
  EXPECT_GT(s.log_hits, 0u);
  EXPECT_GT(s.set_hits, 0u);
  EXPECT_EQ(s.dram_hits + s.log_hits + s.set_hits + s.misses, s.requests);
  EXPECT_GE(s.bytes_requested, s.bytes_missed);
}

TEST(LogFlashCacheTest, ColdEvictionsAreRejectedByS3FifoFilter) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // evicts 1 with 0 reads: rejected, no device write
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_EQ(cache.DeviceBytesWritten(), 0u);
}

TEST(LogFlashCacheTest, GhostHitPromotesStraightToFlash) {
  LogFlashCacheConfig config = SmallConfig();
  config.dram_discipline = DramDiscipline::kSmallFifo;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("s3fifo", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 50));  // 1 evicted cold -> ghost
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_FALSE(cache.Get(Get(1, 50)));  // ghost hit: S->G->M, write to flash
  EXPECT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Get(1, 50)));
  EXPECT_EQ(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, SmallObjectsRouteToSets) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 4;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 10));   // small
  cache.Get(Get(2, 50));   // large
  cache.Get(Get(3, 60));   // push both out of DRAM
  cache.Get(Get(4, 60));
  EXPECT_TRUE(cache.sets().Contains(1));
  EXPECT_TRUE(cache.log().Contains(2));
  EXPECT_FALSE(cache.log().Contains(1));
  EXPECT_FALSE(cache.sets().Contains(2));
  // Set hits and log hits are counted separately.
  cache.Get(Get(1, 10));
  cache.Get(Get(2, 50));
  EXPECT_EQ(cache.stats().set_hits, 1u);
  EXPECT_EQ(cache.stats().log_hits, 1u);
}

TEST(LogFlashCacheTest, DeleteRemovesEveryTier) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 4;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 10));
  cache.Get(Get(2, 50));
  cache.Get(Get(3, 60));
  cache.Get(Get(4, 60));  // 1 -> sets, 2 -> log, 3/4 in DRAM
  EXPECT_FALSE(cache.Get(Del(1)));
  EXPECT_FALSE(cache.Get(Del(2)));
  EXPECT_FALSE(cache.Get(Del(4)));
  EXPECT_FALSE(cache.sets().Contains(1));
  EXPECT_FALSE(cache.log().Contains(2));
  EXPECT_EQ(cache.stats().deletes, 3u);
  // Deletes are not requests: miss ratio unaffected.
  EXPECT_EQ(cache.stats().requests, 4u);
}

TEST(LogFlashCacheTest, SetOverwritesFlashResident) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  cache.Get(Get(1, 50));
  cache.Get(Get(2, 60));
  cache.Get(Get(3, 60));  // 1 -> log
  ASSERT_TRUE(cache.log().Contains(1));
  EXPECT_TRUE(cache.Get(Set(1, 80)));  // overwrite in place: dead-mark + re-admit
  EXPECT_EQ(cache.log().SizeOf(1), 80u);
  // 1 (50) and 2 (60) admitted on DRAM eviction, then the 80-byte overwrite.
  EXPECT_EQ(cache.log_stats().admitted_bytes, 50u + 60u + 80u);
}

TEST(LogFlashCacheTest, ResizeFlashShrinksSegmentBudget) {
  LogFlashCacheConfig config = SmallConfig();
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  for (uint64_t id = 1; id <= 20; ++id) {
    cache.Get(Get(id, 60));
  }
  const uint64_t before = cache.stats().flash_evictions;
  cache.ResizeFlash(1);
  EXPECT_LE(cache.log().segments_in_use(), 1u);
  EXPECT_GT(cache.stats().flash_evictions, before);
}

TEST(LogFlashCacheTest, ConfigFormatParseRoundTrip) {
  LogFlashCacheConfig config;
  config.dram_capacity_bytes = 12345;
  config.dram_discipline = DramDiscipline::kSmallFifo;
  config.ghost_entries = 99;
  config.log.segment_bytes = 8192;
  config.log.num_segments = 7;
  config.log.ordering = LogOrdering::kRipq;
  config.log.gc_readmit = false;
  config.log.ripq_sections = 6;
  config.log.insert_priority = 2;
  config.small_object_threshold = 300;
  config.set_store.set_bytes = 512;
  config.set_store.num_sets = 33;

  const LogFlashCacheConfig parsed = ParseLogFlashConfig(FormatLogFlashConfig(config));
  EXPECT_EQ(parsed.dram_capacity_bytes, 12345u);
  EXPECT_EQ(parsed.dram_discipline, DramDiscipline::kSmallFifo);
  EXPECT_EQ(parsed.ghost_entries, 99u);
  EXPECT_EQ(parsed.log.segment_bytes, 8192u);
  EXPECT_EQ(parsed.log.num_segments, 7u);
  EXPECT_EQ(parsed.log.ordering, LogOrdering::kRipq);
  EXPECT_EQ(parsed.log.gc_readmit, false);
  EXPECT_EQ(parsed.log.ripq_sections, 6u);
  EXPECT_EQ(parsed.log.insert_priority, 2u);
  EXPECT_EQ(parsed.small_object_threshold, 300u);
  EXPECT_EQ(parsed.set_store.set_bytes, 512u);
  EXPECT_EQ(parsed.set_store.num_sets, 33u);
}

TEST(LogFlashCacheTest, CombinedDeviceAccounting) {
  LogFlashCacheConfig config = SmallConfig();
  config.small_object_threshold = 32;
  config.set_store.set_bytes = 64;
  config.set_store.num_sets = 2;
  auto cache = LogStructuredFlashCache(config, CreateAdmissionPolicy("none", 100, 1));
  for (uint64_t i = 0; i < 200; ++i) {
    cache.Get(Get(i % 23, (i % 3 == 0) ? 10 : 60));
  }
  EXPECT_EQ(cache.DeviceBytesWritten(), cache.log_stats().device_bytes_written +
                                            cache.set_stats().device_bytes_written);
  EXPECT_EQ(cache.AdmittedBytes(),
            cache.log_stats().admitted_bytes + cache.set_stats().admitted_bytes);
  EXPECT_GE(cache.WriteAmplification(), 1.0);
  // Both components saw traffic.
  EXPECT_GT(cache.log_stats().admitted_bytes, 0u);
  EXPECT_GT(cache.set_stats().page_writes, 0u);
}

}  // namespace
}  // namespace s3fifo
