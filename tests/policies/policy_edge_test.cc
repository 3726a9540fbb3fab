// Second-round behavioural edges: adaptation directions, admission filters,
// instrumentation details, and byte-mode paths that the first-round suites
// do not pin down.
#include <gtest/gtest.h>

#include "src/core/cache_factory.h"
#include "src/policies/arc.h"
#include "src/policies/lecar.h"
#include "src/policies/s3fifo.h"
#include "src/sim/simulator.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Request Get(uint64_t id) {
  Request r;
  r.id = id;
  return r;
}

TEST(ArcEdgeTest, B2HitShrinksRecencyTarget) {
  CacheConfig config;
  config.capacity = 8;
  ArcCache arc(config);
  // Grow p via a B1 hit first (as in arc_lirs_test), then force a T2
  // demotion into B2 and re-request it: p must shrink back.
  arc.Get(Get(1));
  arc.Get(Get(2));
  arc.Get(Get(1));
  arc.Get(Get(2));
  for (uint64_t i = 3; i <= 10; ++i) {
    arc.Get(Get(i));
  }
  arc.Get(Get(3));  // B1 hit: p grows
  const double p_after_b1 = arc.target_t1();
  ASSERT_GT(p_after_b1, 0.0);
  // Flood with recency traffic so T2 tails demote into B2 (p now favours
  // T1, so REPLACE picks T2 victims once T1 <= p).
  for (uint64_t i = 100; i < 140; ++i) {
    arc.Get(Get(i));
  }
  // Request one of the original frequent objects; if it sits in B2 the hit
  // shrinks p. Find one that is a B2 ghost by probing misses.
  const double p_before = arc.target_t1();
  arc.Get(Get(1));
  arc.Get(Get(2));
  EXPECT_LE(arc.target_t1(), p_before);
}

TEST(LeCarEdgeTest, GhostHitShiftsWeightAwayFromGuiltyExpert) {
  CacheConfig config;
  config.capacity = 16;
  config.seed = 5;
  LeCarCache cache(config);
  const double w0 = cache.weight_lru();
  EXPECT_DOUBLE_EQ(w0, 0.5);
  // Churn to generate evictions from both experts, then re-request ids to
  // trigger ghost hits; weights must move away from 0.5 eventually while
  // remaining a distribution.
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    cache.Get(Get(rng.NextBounded(200)));
    const double w = cache.weight_lru();
    ASSERT_GE(w, 0.0);
    ASSERT_LE(w, 1.0);
  }
  EXPECT_NE(cache.weight_lru(), 0.5);
}

TEST(S3FifoEdgeTest, ByteModeSmallAndMainShareScalesWithBytes) {
  CacheConfig config;
  config.capacity = 100000;  // bytes
  config.count_based = false;
  S3FifoCache cache(config);
  EXPECT_EQ(cache.small_target(), 10000u);  // 10% of the byte capacity
  Rng rng(2);
  for (int i = 0; i < 30000; ++i) {
    Request r;
    r.id = rng.NextBounded(500);
    r.size = 500 + static_cast<uint32_t>(rng.NextBounded(3000));
    cache.Get(r);
    ASSERT_LE(cache.occupied(), 100000u);
    ASSERT_EQ(cache.small_occupied() + cache.main_occupied(), cache.occupied());
  }
}

TEST(S3FifoEdgeTest, GhostDoesNotRememberMainEvictions) {
  // Only S evictions enter G (Fig. 5): an object evicted from M must be a
  // plain miss (re-inserted into S) on return.
  CacheConfig config;
  config.capacity = 20;
  config.params = "small_ratio=0.5,move_to_main_threshold=1";
  S3FifoCache cache(config);
  cache.Get(Get(1));
  cache.Get(Get(1));  // freq 1 -> moves to M at S eviction
  for (uint64_t i = 100; i < 160; ++i) {
    cache.Get(Get(i));  // churn: promotes twice-touched objects into M,
    cache.Get(Get(i));  // pushing 1 (freq 0 after its move) out of M
  }
  ASSERT_FALSE(cache.Contains(1));
  const uint64_t main_evictions = cache.stats().main_evictions;
  ASSERT_GT(main_evictions, 0u);
  EXPECT_FALSE(cache.GhostContains(1));
  cache.Get(Get(1));
  EXPECT_GT(cache.small_occupied(), 0u);  // came back through S, not M
}

TEST(S3FifoEdgeTest, SetOpCountsAsAccessForPromotion) {
  CacheConfig config;
  config.capacity = 100;
  S3FifoCache cache(config);
  Request w;
  w.id = 7;
  w.op = OpType::kSet;
  cache.Get(w);  // insert via set
  cache.Get(w);  // set hit: increments freq like a get
  cache.Get(w);
  for (uint64_t i = 1000; i < 1110; ++i) {
    cache.Get(Get(i));
  }
  EXPECT_TRUE(cache.Contains(7));  // promoted to M on S eviction
}

TEST(TinyLfuEdgeTest, DoorkeeperAbsorbsFirstTouch) {
  // A single access registers in the doorkeeper only; the duel estimate for
  // a once-seen candidate ties with a once-seen victim, so the candidate is
  // rejected (ties favour the incumbent).
  CacheConfig config;
  config.capacity = 100;
  config.params = "window_ratio=0.02";
  auto c = CreateCache("tinylfu", config);
  // Fill main with once-seen objects.
  for (uint64_t i = 0; i < 200; ++i) {
    c->Get(Get(i));
  }
  const uint64_t resident_before = c->occupied();
  // A new one-touch object cannot displace a main resident.
  c->Get(Get(10001));
  c->Get(Get(10002));
  c->Get(Get(10003));
  EXPECT_EQ(c->occupied(), resident_before);
  EXPECT_FALSE(c->Contains(10001));
}

TEST(BeladyEdgeTest, TieOnNeverAccessedPrefersEviction) {
  // Two residents never reused: inserting a third (reused) object must evict
  // one of them, not the useful one.
  CacheConfig config;
  config.capacity = 2;
  auto c = CreateCache("belady", config);
  Trace t({Get(1), Get(2), Get(3)});
  t.set_next_access({kNeverAccessed, kNeverAccessed, 10});
  Simulate(t, *c);
  EXPECT_TRUE(c->Contains(3));
}

TEST(SieveEdgeTest, HandWrapsAroundAfterFullPass) {
  CacheConfig config;
  config.capacity = 3;
  auto c = CreateCache("sieve", config);
  c->Get(Get(1));
  c->Get(Get(2));
  c->Get(Get(3));
  // Visit everything: eviction must still make progress (two-pass clear).
  c->Get(Get(1));
  c->Get(Get(2));
  c->Get(Get(3));
  c->Get(Get(4));
  EXPECT_EQ(c->occupied(), 3u);
  int resident = 0;
  for (uint64_t id : {1, 2, 3, 4}) {
    resident += c->Contains(id) ? 1 : 0;
  }
  EXPECT_EQ(resident, 3);
}

TEST(ClockEdgeTest, DeleteWhileSweeping) {
  CacheConfig config;
  config.capacity = 4;
  auto c = CreateCache("clock", config);
  for (uint64_t i = 1; i <= 4; ++i) {
    c->Get(Get(i));
    c->Get(Get(i));  // all referenced
  }
  Request del;
  del.id = 2;
  del.op = OpType::kDelete;
  c->Get(del);
  c->Get(Get(9));  // sweep over remaining referenced entries
  EXPECT_LE(c->occupied(), 4u);
  EXPECT_TRUE(c->Contains(9));
}

TEST(TwoQEdgeTest, GhostCapacityBoundsMemory) {
  CacheConfig config;
  config.capacity = 10;
  config.params = "kout_ratio=0.5";
  auto c = CreateCache("2q", config);
  // Long scan: A1out must forget old ids (bounded at 5 entries).
  for (uint64_t i = 0; i < 1000; ++i) {
    c->Get(Get(i));
  }
  // An id far in the past is no longer remembered: re-request lands in A1in
  // (and the occupancy invariant holds).
  c->Get(Get(1));
  EXPECT_LE(c->occupied(), 10u);
}

TEST(FifoMergeEdgeTest, SegmentParamControlsGranularity) {
  CacheConfig config;
  config.capacity = 64;
  config.params = "segment_objects=4,merge_factor=2";
  auto c = CreateCache("fifo-merge", config);
  ZipfWorkloadConfig zc;
  zc.num_objects = 500;
  zc.num_requests = 20000;
  zc.alpha = 1.0;
  zc.seed = 6;
  Trace t = GenerateZipfTrace(zc);
  const SimResult r = Simulate(t, *c);
  EXPECT_GT(r.hits, 0u);
  EXPECT_LE(c->occupied(), 64u);
}

TEST(LhdEdgeTest, ReconfigureKeepsWorking) {
  CacheConfig config;
  config.capacity = 50;
  config.params = "reconfigure_factor=1,age_classes=16";  // frequent reconfigs
  auto c = CreateCache("lhd", config);
  ZipfWorkloadConfig zc;
  zc.num_objects = 400;
  zc.num_requests = 30000;
  zc.alpha = 1.0;
  zc.seed = 7;
  Trace t = GenerateZipfTrace(zc);
  const SimResult r = Simulate(t, *c);
  EXPECT_GT(r.hits, 0u);
  EXPECT_LE(c->occupied(), 50u);
}

// --- Factory-wide edge sweep: every policy, the inputs that break caches ---

Request Sized(uint64_t id, uint32_t size, OpType op = OpType::kGet) {
  Request r;
  r.id = id;
  r.size = size;
  r.op = op;
  return r;
}

TEST(AllPoliciesEdgeTest, ObjectLargerThanCapacityNeverOverfills) {
  for (const std::string& name : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 1000;
    config.count_based = false;
    auto c = CreateCache(name, config);
    c->Get(Sized(1, 400));
    c->Get(Sized(2, 400));
    // Oversized requests, repeated and mixed with fitting ones.
    for (int round = 0; round < 3; ++round) {
      c->Get(Sized(100 + round, 1001));
      c->Get(Sized(200 + round, 5000, OpType::kSet));
      c->Get(Sized(3, 100));
      ASSERT_LE(c->occupied(), 1000u) << name;
    }
    EXPECT_FALSE(c->Contains(100)) << name;  // cannot possibly be resident
  }
}

TEST(AllPoliciesEdgeTest, ZeroByteObjectsDoNotCorruptAccounting) {
  for (const std::string& name : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 100;
    config.count_based = false;
    auto c = CreateCache(name, config);
    for (uint64_t i = 0; i < 50; ++i) {
      c->Get(Sized(i, i % 3 == 0 ? 0 : 10));
      ASSERT_LE(c->occupied(), 100u) << name;
    }
    // Re-request a zero-byte object and delete it; occupancy stays sane.
    c->Get(Sized(0, 0));
    c->Get(Sized(0, 0, OpType::kDelete));
    EXPECT_FALSE(c->Contains(0)) << name;
    EXPECT_LE(c->occupied(), 100u) << name;
  }
}

TEST(AllPoliciesEdgeTest, ReinsertWithLargerSizeReclaimsSpace) {
  for (const std::string& name : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 100;
    config.count_based = false;
    auto c = CreateCache(name, config);
    c->Get(Sized(1, 10, OpType::kSet));
    c->Get(Sized(2, 10, OpType::kSet));
    c->Get(Sized(3, 10, OpType::kSet));
    // Same key grows: 10 -> 90 bytes. The cache must evict to make room
    // (or drop the object), never exceed capacity.
    c->Get(Sized(1, 90, OpType::kSet));
    ASSERT_LE(c->occupied(), 100u) << name;
    // And grows beyond the whole cache: must not wedge the accounting.
    c->Get(Sized(2, 150, OpType::kSet));
    ASSERT_LE(c->occupied(), 100u) << name;
    c->Get(Sized(4, 20, OpType::kSet));
    ASSERT_LE(c->occupied(), 100u) << name;
  }
}

TEST(AllPoliciesEdgeTest, GetAfterDeleteIsAMiss) {
  for (const std::string& name : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 8;
    auto c = CreateCache(name, config);
    c->Get(Get(5));
    c->Get(Get(5));  // warm it so recency/frequency state exists
    c->Get(Sized(5, 1, OpType::kDelete));
    EXPECT_FALSE(c->Contains(5)) << name;
    EXPECT_FALSE(c->Get(Get(5))) << name;  // must be a fresh miss
    // Deleting a never-seen id is a no-op.
    c->Get(Sized(77, 1, OpType::kDelete));
    EXPECT_LE(c->occupied(), 8u) << name;
  }
}

}  // namespace
}  // namespace s3fifo
