#include "src/trace/next_access.h"

#include <gtest/gtest.h>

namespace s3fifo {
namespace {

Trace MakeTrace(std::vector<uint64_t> ids) {
  std::vector<Request> reqs;
  for (uint64_t id : ids) {
    reqs.push_back({.id = id});
  }
  return Trace(std::move(reqs));
}

TEST(NextAccessTest, LinksSequentialReuses) {
  Trace t = MakeTrace({1, 2, 1, 2, 1});
  AnnotateNextAccess(t);
  EXPECT_TRUE(t.annotated());
  EXPECT_EQ(t[0].next_access, 2u);
  EXPECT_EQ(t[1].next_access, 3u);
  EXPECT_EQ(t[2].next_access, 4u);
  EXPECT_EQ(t[3].next_access, kNeverAccessed);
  EXPECT_EQ(t[4].next_access, kNeverAccessed);
}

TEST(NextAccessTest, OneHitWondersNeverAccessed) {
  Trace t = MakeTrace({1, 2, 3});
  AnnotateNextAccess(t);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t[i].next_access, kNeverAccessed);
  }
}

TEST(NextAccessTest, EmptyTrace) {
  Trace t;
  AnnotateNextAccess(t);
  EXPECT_TRUE(t.annotated());
}

TEST(NextAccessTest, ChainIsConsistent) {
  // Following next_access pointers for an id must enumerate exactly its
  // requests in order.
  Trace t = MakeTrace({5, 1, 5, 2, 5, 1, 5});
  AnnotateNextAccess(t);
  size_t i = 0;  // first request of id 5
  std::vector<size_t> chain;
  while (i != kNeverAccessed) {
    chain.push_back(i);
    ASSERT_EQ(t[i].id, 5u);
    i = t[i].next_access == kNeverAccessed ? kNeverAccessed
                                           : static_cast<size_t>(t[i].next_access);
  }
  EXPECT_EQ(chain, (std::vector<size_t>{0, 2, 4, 6}));
}

}  // namespace
}  // namespace s3fifo
