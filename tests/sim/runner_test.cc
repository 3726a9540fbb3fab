#include "src/sim/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// A small end-to-end simulation whose result depends only on `seed`.
SimResult SimulateZipf(const std::string& policy, uint64_t seed) {
  ZipfWorkloadConfig c;
  c.num_objects = 200;
  c.num_requests = 5000;
  c.alpha = 1.0;
  c.seed = seed;
  CacheConfig config;
  config.capacity = 50;
  auto cache = CreateCache(policy, config);
  return Simulate(GenerateZipfTrace(c), *cache);
}

TEST(RunnerTest, OutcomesAreIndexAligned) {
  // Task i succeeds only on its (i+1)-th attempt, so each outcome's attempt
  // count names the task it belongs to.
  constexpr size_t kTasks = 3;
  std::vector<std::atomic<int>> calls(kTasks);
  std::vector<int> written(kTasks, -1);
  const auto outcomes = RunTasks(
      kTasks,
      [&](size_t i) {
        if (calls[i].fetch_add(1) < static_cast<int>(i)) {
          throw std::runtime_error("not yet");
        }
        written[i] = static_cast<int>(i);
      },
      {.num_threads = 2, .max_retries = 2});
  ASSERT_EQ(outcomes.size(), kTasks);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(outcomes[i].attempts, i + 1) << i;
    EXPECT_EQ(written[i], static_cast<int>(i));
  }
}

TEST(RunnerTest, TransientFaultIsRetried) {
  // Throws twice, then succeeds: max_retries=2 absorbs both faults.
  std::atomic<int> calls{0};
  const auto outcomes = RunTasks(
      1,
      [&](size_t) {
        if (calls.fetch_add(1) < 2) {
          throw std::runtime_error("simulated node failure");
        }
      },
      {.num_threads = 1, .max_retries = 2});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 3u);
}

TEST(RunnerTest, PermanentFailureIsReportedAndIsolated) {
  constexpr uint32_t kMaxRetries = 3;
  std::vector<SimResult> results(4);
  const auto outcomes = RunTasks(
      results.size(),
      [&](size_t i) {
        if (i == 1) {
          throw std::runtime_error("always fails");
        }
        results[i] = SimulateZipf("lru", i);
      },
      {.num_threads = 2, .max_retries = kMaxRetries});
  ASSERT_EQ(outcomes.size(), results.size());
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].attempts, kMaxRetries + 1);
  EXPECT_EQ(outcomes[1].error, "always fails");
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(outcomes[i].ok) << i;
    EXPECT_EQ(outcomes[i].attempts, 1u) << i;
    EXPECT_TRUE(outcomes[i].error.empty()) << i;
    EXPECT_EQ(results[i].hits, SimulateZipf("lru", i).hits) << i;
  }
}

TEST(RunnerTest, NonStandardExceptionIsReportedAsUnknown) {
  const auto outcomes = RunTasks(
      1, [](size_t) { throw 42; }, {.num_threads = 1, .max_retries = 1});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 2u);
  EXPECT_EQ(outcomes[0].error, "unknown exception");
}

TEST(RunnerTest, ResultsAreIdenticalAcrossThreadCounts) {
  constexpr size_t kTasks = 6;
  auto run = [](unsigned threads) {
    std::vector<SimResult> results(kTasks);
    const auto outcomes = RunTasks(
        kTasks, [&](size_t i) { results[i] = SimulateZipf(i % 2 ? "lru" : "s3fifo", i + 10); },
        {.num_threads = threads, .max_retries = 0});
    for (const TaskOutcome& outcome : outcomes) {
      EXPECT_TRUE(outcome.ok) << outcome.error;
    }
    return results;
  };
  const std::vector<SimResult> seq = run(1);
  const std::vector<SimResult> par = run(4);
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_GT(seq[i].requests, 0u) << i;
    EXPECT_EQ(seq[i].hits, par[i].hits) << i;
    EXPECT_EQ(seq[i].misses, par[i].misses) << i;
    EXPECT_EQ(seq[i].bytes_missed, par[i].bytes_missed) << i;
  }
}

}  // namespace
}  // namespace s3fifo
