// Belady / OPT tests, including the optimality property against every
// online policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/next_access.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

std::unique_ptr<Cache> Make(uint64_t cap, const std::string& params = "") {
  CacheConfig config;
  config.capacity = cap;
  config.params = params;
  return CreateCache("belady", config);
}

Trace Annotated(std::vector<uint64_t> ids) {
  std::vector<Request> reqs;
  for (uint64_t id : ids) {
    reqs.push_back({.id = id});
  }
  Trace t(std::move(reqs));
  AnnotateNextAccess(t);
  return t;
}

TEST(BeladyTest, RequiresAnnotation) {
  Trace t = Annotated({1, 2, 1});
  Trace raw(std::vector<Request>(t.requests()));  // un-annotated copy
  auto c = Make(2);
  EXPECT_THROW(Simulate(raw, *c), std::invalid_argument);
}

TEST(BeladyTest, EvictsFarthestFuture) {
  // Cache of 2. Sequence: 1 2 3 1 2. At the miss on 3, object 1 is reused
  // at t=3 and 2 at t=4 -> evict 2 (farthest... no: farthest is 2).
  Trace t = Annotated({1, 2, 3, 1, 2});
  auto c = Make(2);
  const SimResult r = Simulate(t, *c);
  // OPT: misses on 1,2,3; then 1 hits (kept), 2 misses. 4 misses, 1 hit.
  EXPECT_EQ(r.hits, 1u);
}

TEST(BeladyTest, ClassicBeladyExample) {
  // Page string 2 3 2 1 5 2 4 5 3 2 5 2 with 3 frames: OPT faults on
  // 2,3,1,5,4,2 — six misses (hand-verified).
  Trace t = Annotated({2, 3, 2, 1, 5, 2, 4, 5, 3, 2, 5, 2});
  auto c = Make(3);
  const SimResult r = Simulate(t, *c);
  EXPECT_EQ(r.misses, 6u);
}

// The batched path reads each request's next access from the view's column.
TEST(BeladyTest, GetBatchOverAnnotatedViewMatchesClassicExample) {
  Trace t = Annotated({2, 3, 2, 1, 5, 2, 4, 5, 3, 2, 5, 2});
  auto c = Make(3);
  std::vector<uint8_t> hits(t.size());
  c->GetBatch(TraceView::Borrow(t), 0, t.size(), hits.data());
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 0), 6);
}

// A bare Request carries no next access, so a scalar Get treats it as never
// reused: it agrees with GetBatch over a view that is not annotated.
TEST(BeladyTest, ScalarGetMatchesGetBatchOverUnannotatedView) {
  const Trace raw({{.id = 2}, {.id = 3}, {.id = 2}, {.id = 1}, {.id = 5}, {.id = 2},
                   {.id = 4}, {.id = 5}, {.id = 3}, {.id = 2}, {.id = 5}, {.id = 2}});
  auto scalar = Make(3);
  auto batched = Make(3);
  std::vector<uint8_t> hits(raw.size());
  batched->GetBatch(TraceView::Borrow(raw), 0, raw.size(), hits.data());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(scalar->Get(raw[i]), hits[i] != 0) << i;
  }
}

TEST(BeladyTest, BypassNeverParamSkipsDeadObjects) {
  Trace t = Annotated({1, 2, 3, 1});  // 2 and 3 never reused
  auto c = Make(2, "bypass_never=1");
  Simulate(t, *c);
  EXPECT_FALSE(c->Contains(2));
  EXPECT_FALSE(c->Contains(3));
  EXPECT_TRUE(c->Contains(1));
}

class BeladyOptimalityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BeladyOptimalityTest, NoOnlinePolicyBeatsOpt) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 400;
  zc.num_requests = 20000;
  zc.alpha = 0.9;
  zc.scan_fraction = 0.001;
  zc.scan_length = 50;
  zc.seed = 21;
  Trace t = GenerateZipfTrace(zc);
  AnnotateNextAccess(t);

  CacheConfig config;
  config.capacity = 64;
  auto opt = CreateCache("belady", config);
  auto online = CreateCache(GetParam(), config);
  const double mr_opt = Simulate(t, *opt).MissRatio();
  const double mr_online = Simulate(t, *online).MissRatio();
  // Belady is optimal for uniform sizes; allow a hair of slack for the
  // tie-breaking of equal next-access distances.
  EXPECT_LE(mr_opt, mr_online + 1e-9) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(VsOnline, BeladyOptimalityTest,
                         ::testing::Values("fifo", "lru", "clock", "sieve", "slru", "2q", "arc",
                                           "lirs", "tinylfu", "lecar", "lhd", "s3fifo",
                                           "s3fifo-d"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace s3fifo
