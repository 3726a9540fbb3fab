// Long-horizon differential fuzz: >= 1M requests per oracle-covered policy
// (the ISSUE 4 acceptance bar), split evenly between count- and byte-based
// configs. Runs under `ctest -L check` (not tier1); CI runs it under
// ASan/UBSan. S3FIFO_CHECK_REQUESTS overrides the per-policy request count
// for quick local iterations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/check/differential.h"
#include "src/check/flash_oracle.h"
#include "src/check/invariants.h"
#include "src/check/shrinker.h"
#include "src/check/trace_fuzzer.h"

namespace s3fifo {
namespace check {
namespace {

uint64_t RequestsPerPolicy() {
  if (const char* env = std::getenv("S3FIFO_CHECK_REQUESTS")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1000000;
}

TEST(LongFuzzTest, MillionRequestsPerPolicy) {
  const uint64_t total = RequestsPerPolicy();
  const uint64_t per_run = total / 2;
  for (const std::string& policy : OracleCoveredPolicies()) {
    {
      FuzzConfig fc;
      fc.seed = 0x5eed0000 + 1;
      fc.num_requests = per_run;
      fc.capacity = 64;
      CacheConfig config;
      config.capacity = fc.capacity;
      const Divergence div = RunDifferential(GenerateFuzzRequests(fc), policy, config);
      EXPECT_FALSE(div.found) << policy << " (count-based, seed " << fc.seed
                              << "): " << div.what;
    }
    {
      FuzzConfig fc;
      fc.seed = 0x5eed0000 + 2;
      fc.num_requests = per_run;
      fc.capacity = 8192;
      fc.count_based = false;
      CacheConfig config;
      config.capacity = fc.capacity;
      config.count_based = false;
      const Divergence div = RunDifferential(GenerateFuzzRequests(fc), policy, config);
      EXPECT_FALSE(div.found) << policy << " (byte-based, seed " << fc.seed
                              << "): " << div.what;
    }
  }
}

// Batched GetBatch vs per-request Get on long fuzzed streams: the policies'
// devirtualized block loops and batched eviction sweeps must be bit-
// identical to the scalar path at every hit bit and occupancy checkpoint.
TEST(LongFuzzTest, BatchedParityFuzz) {
  const uint64_t total = RequestsPerPolicy();
  const uint64_t per_run = std::max<uint64_t>(total / 10, 10000);
  for (const std::string& policy : OracleCoveredPolicies()) {
    for (const bool count_based : {true, false}) {
      FuzzConfig fc;
      fc.seed = 0xba7c0000 + (count_based ? 1 : 2);
      fc.num_requests = per_run;
      fc.capacity = count_based ? 64 : 8192;
      fc.count_based = count_based;
      CacheConfig config;
      config.capacity = fc.capacity;
      config.count_based = count_based;
      const std::string violation =
          CheckBatchedParity(policy, config, GenerateFuzzRequests(fc));
      EXPECT_EQ(violation, "") << policy << (count_based ? " (count" : " (byte")
                               << "-based, seed " << fc.seed << ")";
    }
  }
}

// Long flash wall: >= 1M requests through LogStructuredFlashCache vs the
// naive flat oracle, split across the admission policies and the config axes
// that matter (discipline, ordering, set store, mid-run resizes). Conservation
// of device bytes is checked inside the driver after every request.
TEST(LongFuzzTest, MillionRequestsFlashDifferential) {
  const uint64_t total = RequestsPerPolicy();
  struct Leg {
    const char* admission;
    DramDiscipline discipline;
    LogOrdering ordering;
    uint64_t small_threshold;  // 0 = log only
    uint64_t resize_period;    // 0 = none
  };
  const Leg legs[] = {
      {"none", DramDiscipline::kLru, LogOrdering::kFifo, 0, 0},
      {"probabilistic", DramDiscipline::kLru, LogOrdering::kRipq, 0, 0},
      {"s3fifo", DramDiscipline::kSmallFifo, LogOrdering::kFifo, 128, 0},
      {"flashield", DramDiscipline::kSmallFifo, LogOrdering::kRipq, 128, 4096},
  };
  const uint64_t per_leg = std::max<uint64_t>(total / std::size(legs), 1000);
  for (const Leg& leg : legs) {
    LogFlashCacheConfig config;
    config.dram_capacity_bytes = 4096;
    config.dram_discipline = leg.discipline;
    config.log.segment_bytes = 4096;
    config.log.num_segments = 8;
    config.log.ordering = leg.ordering;
    config.small_object_threshold = leg.small_threshold;
    config.set_store.set_bytes = 512;
    config.set_store.num_sets = 16;

    FlashFuzzConfig fc;
    fc.seed = 0xf1a50000 + leg.resize_period + leg.small_threshold +
              static_cast<uint64_t>(leg.ordering);
    fc.num_requests = per_leg;
    fc.small_object_threshold = config.small_object_threshold;
    fc.segment_bytes = config.log.segment_bytes;

    FlashResizeSchedule resizes;
    resizes.period = leg.resize_period;
    resizes.seed = fc.seed ^ 0x5a5a;

    const Divergence div =
        RunFlashDifferential(GenerateFlashFuzzRequests(fc), config, leg.admission,
                             /*reuse_horizon=*/1000, /*admission_seed=*/17, resizes);
    EXPECT_FALSE(div.found) << leg.admission << " (seed " << fc.seed
                            << "): " << div.what;
  }
}

// Fuzz the one-pass MRC engine against brute force across seeds; on a
// divergence, ddmin-shrink the trace to a minimal reproducer and print it
// seed-first so the failure is replayable from the log alone.
TEST(LongFuzzTest, MrcEngineDifferentialFuzz) {
  const uint64_t total = RequestsPerPolicy();
  const uint64_t per_seed = std::max<uint64_t>(total / 20, 1000);
  const std::vector<uint64_t> grid = {8, 24, 64, 200};
  const std::string policies[] = {"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"};
  for (const std::string& policy : policies) {
    for (uint64_t round = 0; round < 10; ++round) {
      FuzzConfig fc;
      fc.seed = 0x3fc0000 + round * 131 + policy.size();
      fc.num_requests = per_seed;
      fc.capacity = 64;
      CacheConfig config;
      config.capacity = 1;
      const std::vector<Request> requests = GenerateFuzzRequests(fc);
      const std::string violation = CheckMrcMatchesBruteForce(policy, config, requests, grid);
      if (violation.empty()) {
        const std::string mono = CheckMrcMonotone(policy, config, requests, grid);
        EXPECT_EQ(mono, "") << policy << " seed " << fc.seed;
        continue;
      }
      // Shrink before failing: the minimized stream is the actionable repro.
      const std::vector<Request> shrunk = ShrinkTrace(requests, [&](const std::vector<Request>& t) {
        return !CheckMrcMatchesBruteForce(policy, config, t, grid).empty();
      });
      std::fprintf(stderr, "MRC divergence for %s (seed %llu): %s\nshrunk to %zu requests:\n",
                   policy.c_str(), static_cast<unsigned long long>(fc.seed), violation.c_str(),
                   shrunk.size());
      for (const Request& r : shrunk) {
        std::fprintf(stderr, "  id=%llu op=%d size=%u\n",
                     static_cast<unsigned long long>(r.id), static_cast<int>(r.op), r.size);
      }
      FAIL() << policy << " one-pass MRC diverged (seed " << fc.seed << "): " << violation;
    }
  }
}

}  // namespace
}  // namespace check
}  // namespace s3fifo
