#include "src/util/flat_map.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <vector>

#include "src/util/rng.h"

namespace s3fifo {
namespace {

struct Value {
  uint64_t a = 0;
  uint64_t b = 0;
};

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<Value> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Contains(1));
  EXPECT_FALSE(m.Erase(1));

  bool inserted = false;
  Value* v = m.Emplace(1, &inserted);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(inserted);
  v->a = 11;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.Contains(1));
  EXPECT_EQ(m.Find(1), v);

  Value* again = m.Emplace(1, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(again, v);
  EXPECT_EQ(again->a, 11u);  // existing value untouched
  EXPECT_EQ(m.size(), 1u);

  EXPECT_TRUE(m.Erase(1));
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_FALSE(m.Erase(1));
}

TEST(FlatMapTest, EraseIfErasesOnlyWhenThePredicateHolds) {
  FlatMap<uint64_t> m;
  const auto is = [](uint64_t want) { return [want](uint64_t v) { return v == want; }; };
  EXPECT_FALSE(m.EraseIf(1, is(0)));
  *m.Emplace(1) = 7;
  *m.Emplace(2) = 8;
  EXPECT_FALSE(m.EraseIf(1, is(8)));  // present, predicate false: kept
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.Find(1), nullptr);
  EXPECT_EQ(*m.Find(1), 7u);
  EXPECT_FALSE(m.EraseIf(3, is(7)));  // absent
  EXPECT_TRUE(m.EraseIf(1, is(7)));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.Contains(1));
  EXPECT_EQ(*m.Find(2), 8u);
}

TEST(FlatMapTest, EmplaceValueInitializesReusedSlabSlots) {
  FlatMap<Value> m;
  Value* v = m.Emplace(1);
  v->a = 42;
  v->b = 7;
  m.Erase(1);
  bool inserted = false;
  Value* w = m.Emplace(2, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(w, v);  // LIFO free list reuses the slab slot...
  EXPECT_EQ(w->a, 0u);  // ...with a freshly value-initialized Value
  EXPECT_EQ(w->b, 0u);
}

TEST(FlatMapTest, PointerStabilityAcrossRehashes) {
  constexpr uint64_t kN = 20000;  // forces many doublings past kMinSlots
  FlatMap<Value> m;
  std::vector<Value*> ptrs;
  for (uint64_t i = 0; i < kN; ++i) {
    Value* v = m.Emplace(i);
    v->a = i;
    ptrs.push_back(v);
  }
  EXPECT_EQ(m.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(m.Find(i), ptrs[i]);
    EXPECT_EQ(ptrs[i]->a, i);
  }
}

TEST(FlatMapTest, MirrorsUnorderedMapUnderChurn) {
  // Random insert/update/erase churn over a small key space, checked against
  // std::unordered_map — exercises backward-shift deletion, slab reuse, and
  // rehashing together.
  FlatMap<Value> m;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(1234);
  for (int op = 0; op < 200000; ++op) {
    const uint64_t key = rng.NextBounded(1500);
    const uint32_t kind = static_cast<uint32_t>(rng.NextBounded(10));
    if (kind < 5) {
      m.Emplace(key)->a = static_cast<uint64_t>(op);
      ref[key] = static_cast<uint64_t>(op);
    } else if (kind < 8) {
      EXPECT_EQ(m.Erase(key), ref.erase(key) > 0);
    } else {
      const Value* v = m.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(v != nullptr, it != ref.end());
      if (v != nullptr) {
        EXPECT_EQ(v->a, it->second);
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
}

TEST(FlatMapTest, IterationVisitsExactlyLiveEntriesUnderSlabReuse) {
  FlatMap<Value> m;
  // Insert 0..999, erase the evens, insert 1000..1499 (reusing slab slots).
  for (uint64_t i = 0; i < 1000; ++i) {
    m.Emplace(i)->a = i;
  }
  for (uint64_t i = 0; i < 1000; i += 2) {
    ASSERT_TRUE(m.Erase(i));
  }
  for (uint64_t i = 1000; i < 1500; ++i) {
    m.Emplace(i)->a = i;
  }
  std::map<uint64_t, uint64_t> seen;
  m.ForEach([&](uint64_t key, const Value& v) {
    EXPECT_TRUE(seen.emplace(key, v.a).second) << "duplicate key " << key;
  });
  ASSERT_EQ(seen.size(), m.size());
  ASSERT_EQ(seen.size(), 500u + 500u);
  for (uint64_t i = 1; i < 1000; i += 2) {
    ASSERT_TRUE(seen.count(i));
    EXPECT_EQ(seen[i], i);
  }
  for (uint64_t i = 1000; i < 1500; ++i) {
    ASSERT_TRUE(seen.count(i));
    EXPECT_EQ(seen[i], i);
  }
}

TEST(FlatMapTest, ReserveAndClear) {
  FlatMap<Value> m;
  m.Reserve(5000);
  for (uint64_t i = 0; i < 5000; ++i) {
    m.Emplace(i)->a = i;
  }
  EXPECT_EQ(m.size(), 5000u);
  m.Clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  // Usable again after Clear.
  m.Emplace(7)->a = 9;
  EXPECT_EQ(m.Find(7)->a, 9u);
}

}  // namespace
}  // namespace s3fifo
