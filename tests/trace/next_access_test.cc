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
  EXPECT_EQ(t.next_access(),
            (std::vector<uint64_t>{2, 3, 4, kNeverAccessed, kNeverAccessed}));
}

TEST(NextAccessTest, OneHitWondersNeverAccessed) {
  Trace t = MakeTrace({1, 2, 3});
  AnnotateNextAccess(t);
  EXPECT_EQ(t.next_access(), std::vector<uint64_t>(3, kNeverAccessed));
}

TEST(NextAccessTest, EmptyTrace) {
  Trace t;
  AnnotateNextAccess(t);
  EXPECT_TRUE(t.annotated());
  EXPECT_TRUE(t.next_access().empty());
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
    i = t.next_access()[i] == kNeverAccessed ? kNeverAccessed
                                             : static_cast<size_t>(t.next_access()[i]);
  }
  EXPECT_EQ(chain, (std::vector<size_t>{0, 2, 4, 6}));
}

}  // namespace
}  // namespace s3fifo
