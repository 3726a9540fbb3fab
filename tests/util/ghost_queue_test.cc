#include "src/util/ghost_queue.h"

#include <gtest/gtest.h>

#include "src/check/reference_model.h"
#include "src/util/rng.h"

namespace s3fifo {
namespace {

TEST(GhostQueueTest, InsertThenContains) {
  GhostQueue g(10);
  g.Insert(1);
  g.Insert(2);
  EXPECT_TRUE(g.Contains(1));
  EXPECT_TRUE(g.Contains(2));
  EXPECT_FALSE(g.Contains(3));
  EXPECT_EQ(g.size(), 2u);
}

TEST(GhostQueueTest, EvictsOldestWhenFull) {
  GhostQueue g(3);
  g.Insert(1);
  g.Insert(2);
  g.Insert(3);
  g.Insert(4);  // evicts 1
  EXPECT_FALSE(g.Contains(1));
  EXPECT_TRUE(g.Contains(2));
  EXPECT_TRUE(g.Contains(4));
  EXPECT_EQ(g.size(), 3u);
}

TEST(GhostQueueTest, ReinsertRefreshesPosition) {
  GhostQueue g(3);
  g.Insert(1);
  g.Insert(2);
  g.Insert(3);
  g.Insert(1);  // 1 moves to head; still 3 entries
  EXPECT_EQ(g.size(), 3u);
  g.Insert(4);  // evicts 2, the oldest live entry
  EXPECT_TRUE(g.Contains(1));
  EXPECT_FALSE(g.Contains(2));
  EXPECT_TRUE(g.Contains(3));
  EXPECT_TRUE(g.Contains(4));
}

TEST(GhostQueueTest, RemoveDropsEntry) {
  GhostQueue g(5);
  g.Insert(1);
  g.Insert(2);
  EXPECT_TRUE(g.Remove(1));
  EXPECT_FALSE(g.Contains(1));
  EXPECT_FALSE(g.Remove(1));
  EXPECT_EQ(g.size(), 1u);
}

TEST(GhostQueueTest, ReinsertAtCapacityNeverEvictsItself) {
  // Id 1's first slot (seq 0) goes stale on Remove and is still the oldest
  // slot when 1 is re-inserted into a full queue: the make-room eviction
  // must skip it and drop 2, the oldest live id.
  GhostQueue g(2);
  g.Insert(1);
  g.Remove(1);
  g.Insert(2);
  g.Insert(3);
  g.Insert(1);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains(1));
  EXPECT_FALSE(g.Contains(2));
  EXPECT_TRUE(g.Contains(3));
}

TEST(GhostQueueTest, RemoveThenReinsert) {
  GhostQueue g(2);
  g.Insert(1);
  g.Remove(1);
  g.Insert(1);
  EXPECT_TRUE(g.Contains(1));
  g.Insert(2);
  g.Insert(3);  // evicts 1
  EXPECT_FALSE(g.Contains(1));
  EXPECT_TRUE(g.Contains(2));
  EXPECT_TRUE(g.Contains(3));
}

TEST(GhostQueueTest, ShrinkCapacityEvictsOldest) {
  GhostQueue g(10);
  for (uint64_t i = 0; i < 10; ++i) {
    g.Insert(i);
  }
  g.set_capacity(3);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.Contains(9));
  EXPECT_TRUE(g.Contains(8));
  EXPECT_TRUE(g.Contains(7));
  EXPECT_FALSE(g.Contains(6));
}

TEST(GhostQueueTest, SizeNeverExceedsCapacity) {
  GhostQueue g(7);
  for (uint64_t i = 0; i < 1000; ++i) {
    g.Insert(i % 13);
    ASSERT_LE(g.size(), 7u);
  }
}

TEST(GhostQueueTest, ClearEmpties) {
  GhostQueue g(5);
  g.Insert(1);
  g.Clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_FALSE(g.Contains(1));
}

TEST(GhostQueueTest, HeavyChurnStaysBounded) {
  // Exercises the stale-slot compaction path.
  GhostQueue g(100);
  for (uint64_t i = 0; i < 100000; ++i) {
    g.Insert(i % 50);  // constant re-insertions create stale slots
    ASSERT_LE(g.size(), 100u);
  }
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(g.Contains(i));
  }
}

TEST(GhostQueueTest, MatchesNaiveGhostUnderRandomOps) {
  // Differential against the linear-scan oracle: re-insert refresh,
  // present/absent removes, capacity shrink and grow, and clears, with the
  // full membership compared along the way.
  for (const uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    uint64_t cap = 1 + rng.NextBounded(48);
    GhostQueue g(cap);
    check::NaiveGhost naive(cap);
    const uint64_t universe = 160;
    for (int op = 0; op < 40000; ++op) {
      const uint64_t id = rng.NextBounded(universe);
      const uint64_t dice = rng.NextBounded(1000);
      if (dice < 550) {
        g.Insert(id);
        naive.Insert(id);
      } else if (dice < 750) {
        ASSERT_EQ(g.Contains(id), naive.Contains(id)) << seed << " op " << op;
      } else if (dice < 960) {
        const bool present = naive.Contains(id);
        naive.Remove(id);
        ASSERT_EQ(g.Remove(id), present) << seed << " op " << op;
      } else if (dice < 998) {
        cap = 1 + rng.NextBounded(64);
        g.set_capacity(cap);
        naive.set_capacity(cap);
      } else {
        g.Clear();
        naive = check::NaiveGhost(cap);
      }
      ASSERT_EQ(g.size(), naive.size()) << seed << " op " << op;
      ASSERT_EQ(g.capacity(), naive.capacity()) << seed << " op " << op;
      if (op % 97 == 0) {
        for (uint64_t probe = 0; probe < universe; ++probe) {
          ASSERT_EQ(g.Contains(probe), naive.Contains(probe)) << seed << " op " << op;
        }
      }
    }
  }
}

}  // namespace
}  // namespace s3fifo
