// The per-trace sweep loop behind the miss-ratio figures (bench/sweep.h):
// its cells do not depend on the thread count, each equals a fresh Simulate,
// and a failing task fails the whole sweep.
#include "bench/sweep.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

constexpr double kScale = 0.01;

void ExpectSameResult(const SimResult& a, const SimResult& b, const std::string& what) {
  EXPECT_EQ(a.requests, b.requests) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.bytes_requested, b.bytes_requested) << what;
  EXPECT_EQ(a.bytes_missed, b.bytes_missed) << what;
}

std::string CellName(const SweepCell& c) {
  return c.dataset->name + "/" + std::to_string(c.trace_index) + (c.large ? "/large" : "/small");
}

TEST(SweepTest, CellsAreThreadCountInvariantAndEqualPerCellSimulate) {
  // One-pass policies, brute-force policies, and an s3fifo the one-pass
  // engine cannot run (ghost_type=table), so every task mixes both paths.
  const std::vector<PolicyVariant> variants = {
      {"s3fifo", "s3fifo", ""},
      {"sieve", "sieve", ""},
      {"lru", "lru", ""},
      {"arc", "arc", ""},
      {"s3fifo-table", "s3fifo", "ghost_type=table"},
  };
  std::vector<std::vector<SweepCell>> runs;
  for (const unsigned threads : {1u, 4u}) {
    std::vector<SweepCell> cells;
    const SweepSummary summary = RunMissRatioSweep(
        kScale, variants, /*include_small=*/true,
        [&cells](const SweepCell& c) { cells.push_back(c); }, threads, /*progress=*/false);
    EXPECT_EQ(summary.threads, threads);
    EXPECT_GT(summary.simulated_requests, 0u);
    runs.push_back(std::move(cells));
  }

  // Dataset/trace/size order, both sizes of every trace.
  const std::vector<SweepCell>& serial = runs[0];
  const std::vector<SweepCell>& parallel = runs[1];
  size_t at = 0;
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    for (uint32_t i = 0; i < d.num_traces; ++i) {
      for (const bool large : {true, false}) {
        ASSERT_LT(at, serial.size());
        EXPECT_EQ(serial[at].dataset, &d);
        EXPECT_EQ(serial[at].trace_index, i);
        EXPECT_EQ(serial[at].large, large);
        ++at;
      }
    }
  }
  ASSERT_EQ(serial.size(), at);
  ASSERT_EQ(parallel.size(), at);

  for (size_t ci = 0; ci < serial.size(); ++ci) {
    const SweepCell& a = serial[ci];
    const SweepCell& b = parallel[ci];
    const std::string name = CellName(a);
    EXPECT_EQ(a.dataset, b.dataset) << name;
    EXPECT_EQ(a.trace_index, b.trace_index) << name;
    EXPECT_EQ(a.large, b.large) << name;
    EXPECT_EQ(a.capacity, b.capacity) << name;
    ExpectSameResult(a.fifo, b.fifo, name + "/fifo threads 1 vs 4");
    ASSERT_EQ(a.results.size(), variants.size()) << name;
    ASSERT_EQ(b.results.size(), variants.size()) << name;
    for (size_t vi = 0; vi < variants.size(); ++vi) {
      ExpectSameResult(a.results[vi], b.results[vi],
                       name + "/" + variants[vi].label + " threads 1 vs 4");
    }
  }

  // Every cell equals a fresh Simulate on the regenerated trace.
  for (size_t ci = 0; ci < serial.size(); ci += 2) {
    const Trace trace = GenerateDatasetTrace(*serial[ci].dataset, serial[ci].trace_index, kScale);
    for (const SweepCell& cell : {serial[ci], serial[ci + 1]}) {
      const std::string name = CellName(cell);
      EXPECT_EQ(cell.capacity, SweepCapacity(trace.Stats().num_objects, cell.large)) << name;
      CacheConfig config;
      config.capacity = cell.capacity;
      ExpectSameResult(cell.fifo, Simulate(trace, *CreateCache("fifo", config)),
                       name + "/fifo vs Simulate");
      for (size_t vi = 0; vi < variants.size(); ++vi) {
        CacheConfig variant_config = config;
        variant_config.params = variants[vi].params;
        ExpectSameResult(cell.results[vi],
                         Simulate(trace, *CreateCache(variants[vi].policy, variant_config)),
                         name + "/" + variants[vi].label + " vs Simulate");
      }
    }
  }
}

// A task that throws fails the sweep: the first failure in trace order is
// rethrown with its trace's label, and no cell reaches `collect`.
TEST(SweepTest, UnregisteredPolicyThrowsWithTraceLabel) {
  const std::vector<PolicyVariant> variants = {{"bogus", "no-such-policy", ""}};
  int collected = 0;
  try {
    RunMissRatioSweep(
        kScale, variants, /*include_small=*/false, [&collected](const SweepCell&) { ++collected; },
        /*threads=*/2, /*progress=*/false);
    FAIL() << "the sweep did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string first_trace = AllDatasetProfiles().front().name + "/0: ";
    EXPECT_EQ(std::string(e.what()).rfind(first_trace, 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find("no-such-policy"), std::string::npos) << e.what();
  }
  EXPECT_EQ(collected, 0);
}

}  // namespace
}  // namespace s3fifo
