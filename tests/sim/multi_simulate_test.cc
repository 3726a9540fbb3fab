#include "src/sim/multi_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep_engine.h"
#include "src/trace/next_access.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// A mixed get/set/delete trace exercising every SimResult field (deletes are
// unmeasured, sizes vary so byte counters diverge from request counters).
Trace MakeMixedTrace() {
  ZipfWorkloadConfig cfg;
  cfg.num_objects = 2000;
  cfg.num_requests = 30000;
  cfg.alpha = 1.0;
  cfg.write_fraction = 0.1;
  cfg.delete_fraction = 0.05;
  cfg.size_sigma = 1.0;
  cfg.seed = 9;
  Trace trace = GenerateZipfTrace(cfg);
  AnnotateNextAccess(trace);  // so Belady participates too
  return trace;
}

void ExpectSameResult(const SimResult& a, const SimResult& b, const std::string& what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.bytes_requested, b.bytes_requested) << what;
  EXPECT_EQ(a.bytes_missed, b.bytes_missed) << what;
}

TEST(MultiSimulateTest, BitIdenticalToSequentialSimulateForEveryPolicy) {
  const Trace trace = MakeMixedTrace();
  CacheConfig config;
  config.capacity = 200;

  std::vector<std::unique_ptr<Cache>> caches;
  for (const std::string& name : AllCacheNames()) {
    caches.push_back(CreateCache(name, config));
  }
  const std::vector<SimResult> multi = MultiSimulate(trace, caches);
  ASSERT_EQ(multi.size(), caches.size());

  for (size_t i = 0; i < AllCacheNames().size(); ++i) {
    auto fresh = CreateCache(AllCacheNames()[i], config);
    const SimResult expected = Simulate(trace, *fresh);
    ExpectSameResult(multi[i], expected, AllCacheNames()[i]);
    EXPECT_GT(multi[i].requests, 0u) << AllCacheNames()[i];
  }
}

TEST(MultiSimulateTest, HonorsWarmup) {
  const Trace trace = MakeMixedTrace();
  CacheConfig config;
  config.capacity = 200;
  SimOptions options;
  options.warmup_requests = 10000;

  std::vector<std::unique_ptr<Cache>> caches;
  caches.push_back(CreateCache("s3fifo", config));
  caches.push_back(CreateCache("lru", config));
  const std::vector<SimResult> multi = MultiSimulate(trace, caches, options);

  for (size_t i = 0; i < caches.size(); ++i) {
    auto fresh = CreateCache(i == 0 ? "s3fifo" : "lru", config);
    ExpectSameResult(multi[i], Simulate(trace, *fresh, options), "warmup");
  }
  EXPECT_LT(multi[0].requests, trace.size());
}

TEST(MultiSimulateTest, ThrowsOnUnannotatedBelady) {
  ZipfWorkloadConfig cfg;
  cfg.num_objects = 100;
  cfg.num_requests = 1000;
  Trace trace = GenerateZipfTrace(cfg);  // NOT annotated
  CacheConfig config;
  config.capacity = 50;
  std::vector<std::unique_ptr<Cache>> caches;
  caches.push_back(CreateCache("belady", config));
  EXPECT_THROW(MultiSimulate(trace, caches), std::invalid_argument);
}

TEST(MultiSimulateTest, EmptyCacheSetYieldsNoResults) {
  const Trace trace = MakeMixedTrace();
  const std::vector<std::unique_ptr<Cache>> none;
  EXPECT_TRUE(MultiSimulate(trace, none).empty());
}

// ---- SweepEngine ----

std::vector<SweepUnit> MakeUnits(const SharedTracePtr& shared,
                                 const std::vector<std::string>& policies) {
  std::vector<SweepUnit> units;
  for (const uint64_t capacity : {100, 200, 400}) {
    SweepUnit unit;
    unit.label = "cap" + std::to_string(capacity);
    unit.trace = shared;
    unit.make_caches = [capacity, policies](const TraceView&) {
      CacheConfig config;
      config.capacity = capacity;
      std::vector<std::unique_ptr<Cache>> caches;
      for (const std::string& p : policies) {
        caches.push_back(CreateCache(p, config));
      }
      return caches;
    };
    units.push_back(std::move(unit));
  }
  return units;
}

TEST(SweepEngineTest, MatchesSequentialSimulateAndIsThreadCountInvariant) {
  const std::vector<std::string> policies = {"fifo", "lru", "s3fifo", "sieve", "clock"};
  const Trace reference = MakeMixedTrace();

  std::atomic<int> generations{0};
  auto make_shared_trace = [&generations] {
    return SweepEngine::MakeSharedTrace([&generations] {
      ++generations;
      return MakeMixedTrace();
    });
  };

  std::vector<std::vector<SweepUnitResult>> per_thread_count;
  for (const unsigned threads : {1u, 8u}) {
    RunnerOptions options;
    options.num_threads = threads;
    SweepEngine engine(options);
    const SharedTracePtr shared = make_shared_trace();
    const std::vector<SweepUnit> units = MakeUnits(shared, policies);
    std::vector<SweepUnitResult> results = engine.Run(units);
    ASSERT_EQ(results.size(), units.size());
    EXPECT_EQ(engine.last_simulated_requests(),
              reference.size() * policies.size() * units.size());
    per_thread_count.push_back(std::move(results));
  }

  // The shared trace is generated once per engine run, not once per unit.
  EXPECT_EQ(generations.load(), 2);

  // Thread-count invariance: threads=1 and threads=8 agree bit-for-bit.
  const auto& seq = per_thread_count[0];
  const auto& par = per_thread_count[1];
  for (size_t u = 0; u < seq.size(); ++u) {
    EXPECT_TRUE(seq[u].ok) << seq[u].error;
    EXPECT_TRUE(par[u].ok) << par[u].error;
    EXPECT_EQ(seq[u].label, par[u].label);
    ASSERT_EQ(seq[u].results.size(), policies.size());
    ASSERT_EQ(par[u].results.size(), policies.size());
    for (size_t i = 0; i < policies.size(); ++i) {
      ExpectSameResult(seq[u].results[i], par[u].results[i],
                       seq[u].label + "/" + policies[i]);
    }
  }

  // Engine output equals a plain sequential Simulate per (unit, policy).
  const uint64_t capacities[] = {100, 200, 400};
  for (size_t u = 0; u < seq.size(); ++u) {
    CacheConfig config;
    config.capacity = capacities[u];
    for (size_t i = 0; i < policies.size(); ++i) {
      auto fresh = CreateCache(policies[i], config);
      ExpectSameResult(seq[u].results[i], Simulate(reference, *fresh),
                       seq[u].label + "/" + policies[i] + " vs Simulate");
    }
  }
}

TEST(SweepEngineTest, ReportsFailedUnitsWithoutPoisoningOthers) {
  RunnerOptions options;
  options.num_threads = 2;
  options.max_retries = 1;
  SweepEngine engine(options);

  SharedTracePtr shared = SweepEngine::MakeSharedTrace([] {
    ZipfWorkloadConfig cfg;
    cfg.num_objects = 100;
    cfg.num_requests = 2000;
    return GenerateZipfTrace(cfg);
  });

  std::vector<SweepUnit> units;
  SweepUnit good;
  good.label = "good";
  good.trace = shared;
  good.make_caches = [](const TraceView&) {
    CacheConfig config;
    config.capacity = 50;
    std::vector<std::unique_ptr<Cache>> caches;
    caches.push_back(CreateCache("lru", config));
    return caches;
  };
  units.push_back(std::move(good));

  SweepUnit bad;
  bad.label = "bad";
  bad.trace = shared;
  bad.make_caches = [](const TraceView&) -> std::vector<std::unique_ptr<Cache>> {
    throw std::runtime_error("boom");
  };
  units.push_back(std::move(bad));

  const std::vector<SweepUnitResult> results = engine.Run(units);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].results.size(), 1u);
  EXPECT_GT(results[0].results[0].requests, 0u);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].attempts, 2u);  // initial try + one retry
  EXPECT_NE(results[1].error.find("boom"), std::string::npos);
}

}  // namespace
}  // namespace s3fifo
