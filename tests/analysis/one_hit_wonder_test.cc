#include "src/analysis/one_hit_wonder.h"

#include <gtest/gtest.h>

#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

Trace FromIds(std::vector<uint64_t> ids) {
  std::vector<Request> reqs;
  for (uint64_t id : ids) {
    reqs.push_back({.id = id});
  }
  return Trace(std::move(reqs));
}

TEST(OneHitWonderTest, PaperFigure1ToyExample) {
  // Fig. 1: 17 requests over 5 objects, E once -> 20% full-trace ratio;
  // requests 1..7 contain 4 objects of which C,D once -> 50%;
  // requests 1..4 contain 3 objects of which B,C once -> 67%.
  Trace t = FromIds({'A', 'B', 'A', 'C', 'B', 'A', 'D', 'A', 'B', 'C', 'B', 'A', 'E', 'C',
                     'A', 'B', 'D'});
  EXPECT_NEAR(OneHitWonderRatio(t, 0, 17), 0.20, 1e-9);
  EXPECT_NEAR(OneHitWonderRatio(t, 0, 7), 0.50, 1e-9);
  EXPECT_NEAR(OneHitWonderRatio(t, 0, 4), 2.0 / 3.0, 1e-9);
}

TEST(OneHitWonderTest, FullFractionMatchesTraceStats) {
  ZipfWorkloadConfig c;
  c.num_objects = 1000;
  c.num_requests = 20000;
  c.alpha = 1.0;
  c.seed = 3;
  Trace t = GenerateZipfTrace(c);
  EXPECT_DOUBLE_EQ(SubSequenceOneHitWonderRatio(t, 1.0), t.Stats().one_hit_wonder_ratio);
}

TEST(OneHitWonderTest, ShorterSequencesHaveHigherRatio) {
  // The paper's core observation (§3.1): the one-hit-wonder ratio rises as
  // the sequence shrinks.
  ZipfWorkloadConfig c;
  c.num_objects = 5000;
  c.num_requests = 100000;
  c.alpha = 1.0;
  c.seed = 5;
  Trace t = GenerateZipfTrace(c);
  const auto curve = OneHitWonderCurve(t, {1.0, 0.5, 0.1, 0.01}, 30, 7);
  EXPECT_LT(curve[0], curve[1]);
  EXPECT_LT(curve[1], curve[2]);
  EXPECT_LE(curve[2], curve[3] + 0.02);
}

TEST(OneHitWonderTest, MoreSkewMeansLowerRatioAtSameLength) {
  // Fig. 2: more skewed workloads exhibit lower one-hit-wonder ratios.
  auto ratio_at = [](double alpha) {
    ZipfWorkloadConfig c;
    c.num_objects = 5000;
    c.num_requests = 100000;
    c.alpha = alpha;
    c.seed = 11;
    Trace t = GenerateZipfTrace(c);
    return SubSequenceOneHitWonderRatio(t, 0.1, 30, 3);
  };
  EXPECT_GT(ratio_at(0.6), ratio_at(1.0));
  EXPECT_GT(ratio_at(1.0), ratio_at(1.4));
}

TEST(OneHitWonderTest, EmptyAndDegenerate) {
  Trace empty;
  EXPECT_DOUBLE_EQ(OneHitWonderRatio(empty, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(SubSequenceOneHitWonderRatio(empty, 0.5), 0.0);
  Trace single = FromIds({1});
  EXPECT_DOUBLE_EQ(OneHitWonderRatio(single, 0, 1), 1.0);
}

TEST(OneHitWonderTest, DeterministicInSeed) {
  ZipfWorkloadConfig c;
  c.num_objects = 1000;
  c.num_requests = 20000;
  c.alpha = 0.8;
  c.seed = 9;
  Trace t = GenerateZipfTrace(c);
  EXPECT_DOUBLE_EQ(SubSequenceOneHitWonderRatio(t, 0.1, 10, 42),
                   SubSequenceOneHitWonderRatio(t, 0.1, 10, 42));
}

}  // namespace
}  // namespace s3fifo
