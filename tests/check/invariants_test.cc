// Metamorphic invariants over every policy in the factory — including the
// ones without a naive oracle — plus the cross-implementation checks
// (Belady lower bound, deterministic replay, concurrent shards=1 parity).
#include "src/check/invariants.h"

#include <gtest/gtest.h>

#include "src/check/reference_model.h"
#include "src/check/trace_fuzzer.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace check {
namespace {

std::vector<Request> FuzzTrace(uint64_t seed, uint64_t capacity, bool count_based,
                               uint64_t num_requests, bool reads_only = false) {
  FuzzConfig fc;
  fc.seed = seed;
  fc.num_requests = num_requests;
  fc.capacity = capacity;
  fc.count_based = count_based;
  if (reads_only) {
    fc.p_set = 0.0;
    fc.p_delete = 0.0;
  }
  return GenerateFuzzRequests(fc);
}

TEST(InvariantsTest, EveryPolicyCountBased) {
  const auto trace = FuzzTrace(31, 64, true, 10000);
  for (const std::string& policy : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 64;
    const InvariantReport report = CheckRequestInvariants(policy, config, trace);
    EXPECT_TRUE(report.ok()) << policy << ": " << report.violations.front();
    EXPECT_EQ(report.hits + report.misses, report.requests) << policy;
    EXPECT_GT(report.hits, 0u) << policy;
  }
}

TEST(InvariantsTest, EveryPolicyByteBased) {
  const auto trace = FuzzTrace(32, 4096, false, 10000);
  for (const std::string& policy : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 4096;
    config.count_based = false;
    const InvariantReport report = CheckRequestInvariants(policy, config, trace);
    EXPECT_TRUE(report.ok()) << policy << ": " << report.violations.front();
  }
}

TEST(InvariantsTest, SimulateConservesHitAndMissCounts) {
  const auto requests = FuzzTrace(33, 64, true, 20000);
  Trace trace(requests, "conservation");
  uint64_t non_delete = 0;
  for (const Request& r : requests) {
    non_delete += r.op != OpType::kDelete ? 1 : 0;
  }
  for (const std::string& policy : OracleCoveredPolicies()) {
    CacheConfig config;
    config.capacity = 64;
    auto cache = CreateCache(policy, config);
    const SimResult result = Simulate(trace, *cache);
    EXPECT_EQ(result.hits + result.misses, result.requests) << policy;
    EXPECT_EQ(result.requests, non_delete) << policy;
  }
}

TEST(InvariantsTest, DeterministicReplayAllPolicies) {
  const auto trace = FuzzTrace(35, 64, true, 10000);
  for (const std::string& policy : AllCacheNames()) {
    CacheConfig config;
    config.capacity = 64;
    EXPECT_EQ(CheckDeterministicReplay(policy, config, trace), "") << policy;
  }
}

TEST(InvariantsTest, BeladyIsALowerBoundOnMisses) {
  const auto trace = FuzzTrace(36, 64, true, 20000, /*reads_only=*/true);
  for (const std::string& policy : OracleCoveredPolicies()) {
    CacheConfig config;
    config.capacity = 64;
    EXPECT_EQ(CheckBeladyLowerBound(policy, config, trace), "") << policy;
  }
}

TEST(InvariantsTest, GhostQueueBoundedUnderGhostHeavyChurn) {
  // A scan-heavy stream maximizes quick demotions, pushing the ghost queue
  // toward (and never past) its configured entry bound.
  FuzzConfig fc;
  fc.seed = 37;
  fc.num_requests = 30000;
  fc.capacity = 32;
  fc.key_space = 4096;  // mostly cold: nearly every object dies young
  fc.p_scan = 0.05;
  CacheConfig config;
  config.capacity = 32;
  config.params = "ghost_ratio=0.5";
  const InvariantReport report =
      CheckRequestInvariants("s3fifo", config, GenerateFuzzRequests(fc));
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

// --- One-pass MRC engine invariants -------------------------------------

const std::vector<std::string>& MrcPolicies() {
  static const std::vector<std::string>* p =
      new std::vector<std::string>{"fifo", "clock", "sieve", "lru", "s3fifo", "s3fifo-d"};
  return *p;
}

std::vector<uint64_t> MrcGrid() { return {16, 48, 128, 320}; }

TEST(InvariantsTest, MrcMatchesBruteForceOnFuzzedTraces) {
  const auto trace = FuzzTrace(41, 128, true, 15000);
  CacheConfig config;
  config.capacity = 1;
  for (const std::string& policy : MrcPolicies()) {
    EXPECT_EQ(CheckMrcMatchesBruteForce(policy, config, trace, MrcGrid()), "") << policy;
  }
}

TEST(InvariantsTest, MrcMonotoneWithinBeladySlack) {
  const auto trace = FuzzTrace(42, 128, true, 15000);
  CacheConfig config;
  config.capacity = 1;
  for (const std::string& policy : MrcPolicies()) {
    EXPECT_EQ(CheckMrcMonotone(policy, config, trace, MrcGrid()), "") << policy;
  }
}

TEST(InvariantsTest, MrcGridRefinementInvariant) {
  const auto trace = FuzzTrace(43, 128, true, 15000);
  CacheConfig config;
  config.capacity = 1;
  for (const std::string& policy : MrcPolicies()) {
    EXPECT_EQ(CheckMrcGridRefinement(policy, config, trace, MrcGrid()), "") << policy;
  }
}

TEST(InvariantsTest, ConcurrentShardsOneMatchesSerialSimulator) {
  // The concurrent prototype at cache_shards=1, driven single-threaded, must
  // reproduce the serial simulator's miss ratio (it shares the algorithm but
  // none of the code).
  constexpr uint64_t kCapacity = 2000;
  constexpr uint64_t kRequests = 100000;
  ConcurrentCacheConfig cc;
  cc.capacity_objects = kCapacity;
  cc.value_size = 16;
  cc.cache_shards = 1;
  ConcurrentS3Fifo concurrent(cc);

  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";  // the prototype uses the fingerprint table
  auto serial = CreateCache("s3fifo", sc);

  ZipfDistribution zipf(20000, 1.0);
  Rng rng(38);
  uint64_t concurrent_hits = 0;
  uint64_t serial_hits = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const uint64_t id = zipf.Sample(rng);
    concurrent_hits += concurrent.Get(id) ? 1 : 0;
    Request r;
    r.id = id;
    serial_hits += serial->Get(r) ? 1 : 0;
  }
  const double concurrent_ratio = static_cast<double>(concurrent_hits) / kRequests;
  const double serial_ratio = static_cast<double>(serial_hits) / kRequests;
  EXPECT_NEAR(concurrent_ratio, serial_ratio, 0.01);
}

}  // namespace
}  // namespace check
}  // namespace s3fifo
