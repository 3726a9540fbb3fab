// Direct unit tests of the naive oracles on hand-built sequences, so the
// harness's ground truth is itself pinned before it judges the optimized
// policies.
#include "src/check/reference_model.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace s3fifo {
namespace check {
namespace {

Request Get(uint64_t id, uint32_t size = 1) {
  Request r;
  r.id = id;
  r.size = size;
  return r;
}

Request Del(uint64_t id) {
  Request r;
  r.id = id;
  r.op = OpType::kDelete;
  return r;
}

CacheConfig Cfg(uint64_t capacity, bool count_based = true, std::string params = "") {
  CacheConfig c;
  c.capacity = capacity;
  c.count_based = count_based;
  c.params = std::move(params);
  return c;
}

TEST(NaiveGhostTest, RefreshAndOverflow) {
  NaiveGhost g(2);
  g.Insert(1);
  g.Insert(2);
  g.Insert(1);  // refresh: 1 is now the newest
  g.Insert(3);  // overflow drops the oldest live entry (2)
  EXPECT_TRUE(g.Contains(1));
  EXPECT_FALSE(g.Contains(2));
  EXPECT_TRUE(g.Contains(3));
  EXPECT_EQ(g.size(), 2u);
  g.Remove(1);
  EXPECT_FALSE(g.Contains(1));
  EXPECT_EQ(g.size(), 1u);
}

TEST(FifoOracleTest, EvictsInInsertionOrderRegardlessOfHits) {
  auto m = CreateReferenceModel("fifo", Cfg(2));
  EXPECT_FALSE(m->Step(Get(1)).hit);
  EXPECT_FALSE(m->Step(Get(2)).hit);
  EXPECT_TRUE(m->Step(Get(1)).hit);  // hit does not refresh FIFO order
  const StepOutcome out = m->Step(Get(3));
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({1}));
  EXPECT_EQ(out.occupied, 2u);
}

TEST(LruOracleTest, HitRefreshesRecency) {
  auto m = CreateReferenceModel("lru", Cfg(2));
  m->Step(Get(1));
  m->Step(Get(2));
  EXPECT_TRUE(m->Step(Get(1)).hit);  // 2 is now the LRU victim
  const StepOutcome out = m->Step(Get(3));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({2}));
  EXPECT_TRUE(m->Contains(1));
}

TEST(ClockOracleTest, ReferencedEntryGetsSecondChance) {
  auto m = CreateReferenceModel("clock", Cfg(3));
  m->Step(Get(1));
  m->Step(Get(2));
  m->Step(Get(3));
  m->Step(Get(1));  // ref bit set on 1
  const StepOutcome out = m->Step(Get(4));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({2}));  // 1 spared, hand passes on
  EXPECT_TRUE(m->Contains(1));
}

TEST(SieveOracleTest, VisitedSurvivesAndHandMakesProgress) {
  auto m = CreateReferenceModel("sieve", Cfg(3));
  m->Step(Get(1));
  m->Step(Get(2));
  m->Step(Get(3));
  m->Step(Get(2));  // visited
  StepOutcome out = m->Step(Get(4));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({1}));
  EXPECT_TRUE(m->Contains(2));
  // All visited: the sweep must still evict exactly one object.
  m->Step(Get(2));
  m->Step(Get(3));
  m->Step(Get(4));
  out = m->Step(Get(5));
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.evicted.size(), 1u);
  EXPECT_EQ(out.occupied, 3u);
}

TEST(TwoQOracleTest, OnlyGhostHitsPromoteToAm) {
  // capacity 4 -> kin_capacity 1.
  auto m = CreateReferenceModel("2q", Cfg(4));
  m->Step(Get(1));
  EXPECT_TRUE(m->Step(Get(1)).hit);  // A1in hit: no promotion
  m->Step(Get(2));
  m->Step(Get(3));
  m->Step(Get(4));
  // Capacity pressure reclaims from the oversized A1in: 1 leaves to A1out
  // despite its hit (the correlated-reference window).
  StepOutcome out = m->Step(Get(5));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({1}));
  out = m->Step(Get(1));  // ghost hit -> straight into Am
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({2}));
  EXPECT_TRUE(m->Contains(1));
}

TEST(S3FifoOracleTest, OneHitWonderDemotedAndGhostHitGoesToMain) {
  auto m = CreateReferenceModel("s3fifo", Cfg(2, true, "small_ratio=0.5"));
  m->Step(Get(1));
  m->Step(Get(2));
  // 1 was never re-accessed: quick demotion to the ghost on the next miss.
  StepOutcome out = m->Step(Get(3));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({1}));
  // Ghost hit: 1 re-enters through the main queue (evicting 2 from S).
  out = m->Step(Get(1));
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({2}));
  EXPECT_TRUE(m->Contains(1));
}

TEST(S3FifoOracleTest, FrequentSmallObjectPromotesToMain) {
  auto m = CreateReferenceModel("s3fifo", Cfg(4, true, "small_ratio=0.5"));
  m->Step(Get(1));
  m->Step(Get(1));
  m->Step(Get(1));  // freq 2 >= threshold 2
  m->Step(Get(2));
  m->Step(Get(3));
  m->Step(Get(4));  // cache now full, all in S
  // Next miss drains S: 1 promotes to M (not evicted), 2 dies to the ghost.
  const StepOutcome out = m->Step(Get(5));
  EXPECT_EQ(out.evicted, std::vector<uint64_t>({2}));
  EXPECT_TRUE(m->Contains(1));
  EXPECT_TRUE(m->Contains(5));
}

TEST(OracleTest, OversizedObjectBypassesWithoutEviction) {
  for (const std::string& policy : OracleCoveredPolicies()) {
    auto m = CreateReferenceModel(policy, Cfg(100, /*count_based=*/false));
    m->Step(Get(1, 60));
    const StepOutcome out = m->Step(Get(2, 101));  // larger than the cache
    EXPECT_FALSE(out.hit) << policy;
    EXPECT_TRUE(out.evicted.empty()) << policy;
    EXPECT_EQ(out.occupied, 60u) << policy;
    EXPECT_FALSE(m->Contains(2)) << policy;
  }
}

TEST(OracleTest, DeleteRemovesAndReportsResident) {
  for (const std::string& policy : OracleCoveredPolicies()) {
    auto m = CreateReferenceModel(policy, Cfg(8));
    m->Step(Get(1));
    m->Step(Get(2));
    StepOutcome out = m->Step(Del(1));
    EXPECT_FALSE(out.hit) << policy;
    EXPECT_EQ(out.evicted, std::vector<uint64_t>({1})) << policy;
    EXPECT_FALSE(m->Contains(1)) << policy;
    out = m->Step(Del(1));  // double delete is a no-op
    EXPECT_TRUE(out.evicted.empty()) << policy;
  }
}

TEST(OracleFactoryTest, RejectsUncoveredPoliciesAndConfigs) {
  EXPECT_THROW(CreateReferenceModel("arc", Cfg(8)), std::invalid_argument);
  EXPECT_THROW(CreateReferenceModel("s3fifo", Cfg(8, true, "small_lru=1")),
               std::invalid_argument);
  EXPECT_THROW(CreateReferenceModel("s3fifo", Cfg(8, true, "ghost_type=table")),
               std::invalid_argument);
  EXPECT_THROW(CreateReferenceModel("s3fifo", Cfg(0)), std::invalid_argument);
}

}  // namespace
}  // namespace check
}  // namespace s3fifo
