#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "src/check/trace_fuzzer.h"

namespace s3fifo {
namespace {

Trace MakeTrace(std::vector<uint64_t> ids) {
  std::vector<Request> reqs;
  for (uint64_t id : ids) {
    reqs.push_back({.id = id});
  }
  return Trace(std::move(reqs));
}

TEST(TraceTest, EmptyTrace) {
  Trace t;
  EXPECT_TRUE(t.empty());
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_requests, 0u);
  EXPECT_EQ(s.num_objects, 0u);
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.0);
}

TEST(TraceTest, StatsCountObjectsAndRequests) {
  Trace t = MakeTrace({1, 2, 1, 3, 1});
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_requests, 5u);
  EXPECT_EQ(s.num_objects, 3u);
}

TEST(TraceTest, OneHitWonderRatioMatchesPaperToyExample) {
  // Fig. 1: A B A C B A D A B C B A C A B D -> E... the 17-request example:
  // requests A B A C B A D A B C B A _ C A B D, object E appears once.
  Trace t = MakeTrace({'A', 'B', 'A', 'C', 'B', 'A', 'D', 'A', 'B', 'C', 'B', 'A', 'E', 'C',
                       'A', 'B', 'D'});
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_objects, 5u);
  EXPECT_DOUBLE_EQ(s.one_hit_wonder_ratio, 0.2);  // 1 of 5 (E)
}

TEST(TraceTest, DeletesExcludedFromPopularity) {
  std::vector<Request> reqs;
  Request r;
  r.id = 1;
  reqs.push_back(r);
  r.id = 2;
  r.op = OpType::kDelete;
  reqs.push_back(r);
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.num_objects, 1u);
  EXPECT_EQ(s.num_deletes, 1u);
}

TEST(TraceTest, ByteAccounting) {
  std::vector<Request> reqs;
  Request r;
  r.id = 1;
  r.size = 100;
  reqs.push_back(r);
  r.id = 1;
  r.size = 100;
  reqs.push_back(r);
  r.id = 2;
  r.size = 50;
  reqs.push_back(r);
  Trace t(std::move(reqs));
  const TraceStats& s = t.Stats();
  EXPECT_EQ(s.total_bytes_requested, 250u);
  EXPECT_EQ(s.footprint_bytes, 150u);
}

TEST(TraceTest, AppendInvalidatesStats) {
  Trace t = MakeTrace({1});
  EXPECT_EQ(t.Stats().num_requests, 1u);
  Request r;
  r.id = 2;
  t.Append(r);
  EXPECT_EQ(t.Stats().num_requests, 2u);
  EXPECT_FALSE(t.annotated());
}

TEST(TraceTest, OpCounts) {
  std::vector<Request> reqs(3);
  reqs[0].op = OpType::kGet;
  reqs[1].op = OpType::kSet;
  reqs[2].op = OpType::kDelete;
  Trace t(std::move(reqs));
  EXPECT_EQ(t.Stats().num_gets, 1u);
  EXPECT_EQ(t.Stats().num_sets, 1u);
  EXPECT_EQ(t.Stats().num_deletes, 1u);
}

TEST(TraceTest, StatsMatchOrderedMapRecountOnFuzzedTrace) {
  for (const uint64_t seed : {1, 2, 3}) {
    check::FuzzConfig config;
    config.seed = seed;
    config.num_requests = 20000;
    config.count_based = false;  // sizes vary per request, including resizes
    config.key_space = 3000;
    config.p_delete = 0.1;
    std::vector<Request> reqs = check::GenerateFuzzRequests(config);
    // Every op kind, and ids seen only by deletes, must be present.
    reqs.push_back(Request{.id = ~uint64_t{0}, .size = 7, .op = OpType::kDelete});

    TraceStats want;
    want.num_requests = reqs.size();
    std::map<uint64_t, std::pair<uint64_t, uint32_t>> objects;  // id -> (count, last size)
    for (const Request& r : reqs) {
      want.num_gets += r.op == OpType::kGet ? 1 : 0;
      want.num_sets += r.op == OpType::kSet ? 1 : 0;
      want.num_deletes += r.op == OpType::kDelete ? 1 : 0;
      if (r.op != OpType::kDelete) {
        want.total_bytes_requested += r.size;
        auto& [count, last_size] = objects[r.id];
        ++count;
        last_size = r.size;
      }
    }
    uint64_t one_hit = 0;
    for (const auto& [id, o] : objects) {
      one_hit += o.first == 1 ? 1 : 0;
      want.footprint_bytes += o.second;
    }
    want.num_objects = objects.size();
    want.one_hit_wonder_ratio = static_cast<double>(one_hit) / static_cast<double>(objects.size());
    ASSERT_GT(want.num_gets, 0u);
    ASSERT_GT(want.num_sets, 0u);
    ASSERT_GT(want.num_deletes, 0u);
    ASSERT_GT(one_hit, 0u);

    const Trace trace(std::move(reqs));
    const TraceStats& got = trace.Stats();
    EXPECT_EQ(got.num_requests, want.num_requests) << seed;
    EXPECT_EQ(got.num_objects, want.num_objects) << seed;
    EXPECT_EQ(got.total_bytes_requested, want.total_bytes_requested) << seed;
    EXPECT_EQ(got.footprint_bytes, want.footprint_bytes) << seed;
    EXPECT_EQ(got.num_gets, want.num_gets) << seed;
    EXPECT_EQ(got.num_sets, want.num_sets) << seed;
    EXPECT_EQ(got.num_deletes, want.num_deletes) << seed;
    EXPECT_EQ(got.one_hit_wonder_ratio, want.one_hit_wonder_ratio) << seed;
  }
}

}  // namespace
}  // namespace s3fifo
