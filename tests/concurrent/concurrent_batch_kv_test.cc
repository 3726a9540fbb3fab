// GetBatch/Set/Delete contract tests for the concurrent caches:
//  * GetBatch outcomes are BIT-IDENTICAL to per-request Get on the same
//    stream (prefetch pipelining and per-batch guard pinning may not change
//    a single decision), across batch sizes and shard counts;
//  * the ValueSink receives exactly the hits, in batch order, with the
//    resident bytes;
//  * Set stores caller bytes (readable through the sink), replaces in place
//    without growing the cache, and admits when absent;
//  * Delete removes residency exactly once and composes with eviction;
//  * racing Get/Set/Delete leave the index and the queues in agreement;
//  * a value pointer handed to a sink stays valid while the reader is pinned,
//    even after its entry was evicted and the cache recycled blocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/ebr.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace {

std::vector<uint64_t> ZipfStream(uint64_t objects, uint64_t count, uint64_t seed) {
  ZipfDistribution zipf(objects, 1.0);
  Rng rng(seed);
  std::vector<uint64_t> ids;
  ids.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ids.push_back(zipf.Sample(rng));
  }
  return ids;
}

TEST(GetBatchParityTest, MatchesScalarGetBitExactly) {
  const std::vector<uint64_t> ids = ZipfStream(20000, 100000, 11);
  for (const unsigned shards : {1u, 4u}) {
    for (const uint32_t batch : {1u, 7u, 64u, 1024u}) {
      ConcurrentCacheConfig config;
      config.capacity_objects = 2000;
      config.value_size = 16;
      config.cache_shards = shards;
      ConcurrentS3Fifo scalar(config);
      ConcurrentS3Fifo batched(config);

      std::vector<uint8_t> hits(batch);
      for (size_t i = 0; i < ids.size();) {
        const uint32_t n =
            static_cast<uint32_t>(std::min<size_t>(batch, ids.size() - i));
        batched.GetBatch(ids.data() + i, n, hits.data());
        for (uint32_t k = 0; k < n; ++k) {
          const bool scalar_hit = scalar.Get(ids[i + k]);
          ASSERT_EQ(hits[k] != 0, scalar_hit)
              << "divergence at request " << i + k << " (shards=" << shards
              << " batch=" << batch << ")";
        }
        i += n;
      }
      EXPECT_EQ(scalar.ApproxSize(), batched.ApproxSize());
      EXPECT_EQ(scalar.Stats().hits, batched.Stats().hits);
    }
  }
}

struct RecordingSink final : public ValueSink {
  std::map<uint32_t, std::string> values;  // batch index -> bytes
  void OnValue(uint32_t index, const char* data, uint32_t size) override {
    values[index] = std::string(data, size);
  }
};

TEST(GetBatchSinkTest, DeliversExactlyTheHitsInOrder) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 100;
  config.value_size = 4;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);

  // Admit 1..4 (misses), then batch-get them plus an absent id.
  for (uint64_t id = 1; id <= 4; ++id) {
    cache.Get(id);
  }
  const uint64_t ids[5] = {1, 999, 2, 3, 4};
  uint8_t hits[5] = {};
  RecordingSink sink;
  cache.GetBatch(ids, 5, hits, &sink);

  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 0);  // miss: admitted, no sink callback
  EXPECT_EQ(hits[2], 1);
  ASSERT_EQ(sink.values.size(), 4u);
  EXPECT_EQ(sink.values.count(1), 0u);
  // Fill payloads are value_size bytes of the id's low byte.
  EXPECT_EQ(sink.values[0], std::string(4, static_cast<char>(1)));
  EXPECT_EQ(sink.values[4], std::string(4, static_cast<char>(4)));
}

TEST(SetTest, StoresReplacesAndAdmits) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 100;
  config.value_size = 4;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);

  // Set of an absent id admits it.
  ASSERT_TRUE(cache.Set(7, "alpha", 5));
  const uint64_t size_after = cache.ApproxSize();
  EXPECT_EQ(size_after, 1u);

  auto read_value = [&](uint64_t id) {
    const uint64_t ids[1] = {id};
    uint8_t hit = 0;
    RecordingSink sink;
    cache.GetBatch(ids, 1, &hit, &sink);
    return hit != 0 ? sink.values[0] : std::string("<miss>");
  };
  EXPECT_EQ(read_value(7), "alpha");

  // Replacing in place: same residency, new bytes (longer and shorter).
  ASSERT_TRUE(cache.Set(7, "beta-longer-value", 17));
  EXPECT_EQ(cache.ApproxSize(), size_after);
  EXPECT_EQ(read_value(7), "beta-longer-value");
  ASSERT_TRUE(cache.Set(7, "z", 1));
  EXPECT_EQ(read_value(7), "z");
}

TEST(SetTest, HitMissAccountingMirrorsSimulatorKSet) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 100;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);

  cache.Set(1, "a", 1);  // absent -> admitted: a miss
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.Stats().hits, 0u);
  cache.Set(1, "b", 1);  // resident -> in-place replace: a hit
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(DeleteTest, RemovesExactlyOnce) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 100;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);

  EXPECT_FALSE(cache.Delete(5));  // absent
  cache.Get(5);                   // admit
  EXPECT_EQ(cache.ApproxSize(), 1u);
  EXPECT_TRUE(cache.Delete(5));
  EXPECT_FALSE(cache.Delete(5));
  EXPECT_EQ(cache.ApproxSize(), 0u);
  EXPECT_FALSE(cache.Get(5));  // miss again (re-admits)
  EXPECT_EQ(cache.ApproxSize(), 1u);
}

TEST(DeleteTest, ComposesWithEvictionUnderChurn) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 200;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);

  // Interleave admissions (forcing evictions) with deletes; residency must
  // never exceed capacity and every delete outcome must match a model of
  // residency derived from Get results.
  Rng rng(3);
  std::map<uint64_t, bool> last_get_hit;
  for (uint64_t i = 0; i < 20000; ++i) {
    const uint64_t id = rng.NextBounded(500);
    if (rng.NextDouble() < 0.2) {
      cache.Delete(id);
      // After a delete the next Get on id must be a miss.
      EXPECT_FALSE(cache.Get(id)) << "id " << id << " hit right after delete";
    } else {
      cache.Get(id);
    }
    ASSERT_LE(cache.ApproxSize(), config.capacity_objects);
  }
}

TEST(DeleteTest, DeleteDuringPendingInsertionDiscards) {
  // Delete straight after admission. A miss links and publishes its entry in
  // one critical section, so there is no pending state for the delete to
  // race: it must find, unpublish and unlink the entry, and the re-admission
  // must be a fresh miss, without corrupting counts.
  ConcurrentCacheConfig config;
  config.capacity_objects = 1000;
  config.cache_shards = 1;
  ConcurrentS3Fifo cache(config);
  for (uint64_t id = 0; id < 100; ++id) {
    cache.Get(id);
    ASSERT_TRUE(cache.Delete(id));
    EXPECT_FALSE(cache.Get(id));  // re-admitted as a fresh miss
    ASSERT_TRUE(cache.Delete(id));
  }
  EXPECT_EQ(cache.ApproxSize(), 0u);
}

// Four threads mix Get, Set and Delete on a 64-id hot set. If the index and
// the queues ever disagreed (an entry linked but unpublished, published but
// unlinked, or counted twice), deleting every id afterwards would not succeed
// exactly ApproxSize() times, or would leave residue behind.
TEST(DeleteTest, RacingMixedOpsConserveResidency) {
  struct Shape {
    uint64_t capacity;
    unsigned shards;
  };
  for (const Shape shape : {Shape{32, 1}, Shape{128, 4}}) {
    ConcurrentCacheConfig config;
    config.capacity_objects = shape.capacity;
    config.cache_shards = shape.shards;
    config.value_size = 16;
    ConcurrentS3Fifo cache(config);

    constexpr int kThreads = 4;
    constexpr uint64_t kOps = 20000;
    constexpr uint64_t kHotSet = 64;
    std::atomic<uint64_t> counted_ops{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(500 + t);
        char payload[24];
        uint64_t counted = 0;
        for (uint64_t i = 0; i < kOps; ++i) {
          const uint64_t id = rng.NextBounded(kHotSet);
          const uint64_t dice = rng.NextBounded(10);
          if (dice < 6) {
            cache.Get(id);
            ++counted;
          } else if (dice < 8) {
            std::memset(payload, static_cast<int>(t), sizeof(payload));
            cache.Set(id, payload, 1 + static_cast<uint32_t>(rng.NextBounded(sizeof(payload))));
            ++counted;
          } else {
            cache.Delete(id);
          }
        }
        counted_ops.fetch_add(counted);
      });
    }
    for (auto& th : threads) {
      th.join();
    }

    const ConcurrentCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.hits + stats.misses, counted_ops.load());
    const uint64_t resident = cache.ApproxSize();
    ASSERT_LE(resident, shape.capacity);
    uint64_t deleted = 0;
    for (uint64_t id = 0; id < kHotSet; ++id) {
      deleted += cache.Delete(id) ? 1 : 0;
    }
    EXPECT_EQ(deleted, resident) << "capacity " << shape.capacity;
    EXPECT_EQ(cache.ApproxSize(), 0u);
  }
}

// Records where each hit's bytes live instead of copying them.
struct PointerSink final : public ValueSink {
  std::map<uint32_t, std::pair<const char*, uint32_t>> values;
  void OnValue(uint32_t index, const char* data, uint32_t size) override {
    values[index] = {data, size};
  }
};

// A reader that stays pinned may keep using the bytes a sink was handed: the
// entry's block (inline first value) and a heap value swapped in by a Set
// must both outlive eviction, and must not be recycled into a new entry,
// until the reader unpins.
TEST(EntryPoolTest, HeldValueSurvivesEvictionWhilePinned) {
  ConcurrentCacheConfig config;
  config.capacity_objects = 64;
  config.cache_shards = 1;
  config.value_size = 32;
  ConcurrentS3Fifo cache(config);

  const std::string inline_bytes(32, 'i');
  const std::string heap_bytes(40, 'h');
  ASSERT_TRUE(cache.Set(7, inline_bytes.data(), 32));  // admitted: inline value
  ASSERT_TRUE(cache.Set(8, "first", 5));
  ASSERT_TRUE(cache.Set(8, heap_bytes.data(), 40));  // resident: heap value

  {
    EbrDomain::Guard reader;
    const uint64_t ids[2] = {7, 8};
    uint8_t hits[2] = {};
    PointerSink sink;
    cache.GetBatch(ids, 2, hits, &sink);
    ASSERT_EQ(hits[0], 1);
    ASSERT_EQ(hits[1], 1);

    // Churn from another thread: each new id is read three times, enough to
    // earn promotion, so both queues turn over, 7 and 8 are evicted, and
    // thousands of entries are admitted, retired and reclaimed around them.
    std::thread churn([&] {
      for (uint64_t i = 0; i < 60000; ++i) {
        cache.Get(1000 + i / 3);
        if (i % 1024 == 0) {
          EbrDomain::Instance().ReclaimAll();
        }
      }
      EbrDomain::Instance().ReclaimAll();
    });
    churn.join();

    const uint64_t probe[2] = {7, 8};
    uint8_t probe_hits[2] = {};
    cache.GetBatch(probe, 2, probe_hits);
    EXPECT_EQ(probe_hits[0], 0) << "id 7 was never evicted";
    EXPECT_EQ(probe_hits[1], 0) << "id 8 was never evicted";
    EXPECT_EQ(std::string(sink.values[0].first, sink.values[0].second), inline_bytes);
    EXPECT_EQ(std::string(sink.values[1].first, sink.values[1].second), heap_bytes);
  }
  EbrDomain::Instance().ReclaimAll();
}

}  // namespace
}  // namespace s3fifo
