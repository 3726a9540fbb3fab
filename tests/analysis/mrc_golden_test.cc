// Golden MRC fingerprints: pin the exact per-size hit counts behind the
// committed fig06/fig07 configurations (dataset-profile traces at the
// SweepCapacity sizes), golden_trace_test-style.
//
// Every quantity here is deterministic — the traces come from the in-repo
// generators (det_math + xoshiro) and the one-pass engine is pinned against
// brute force by mrc_engine_test — so these constants must reproduce on
// every platform. If one changes, a hot-path "optimization" perturbed the
// published curves (fix that), or a policy's semantics changed deliberately
// (update the constant in the same PR that documents the change).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/sweep.h"
#include "src/analysis/mrc_engine.h"
#include "src/trace/trace_view.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

// One fig06/fig07 cell: dataset trace 0 at test scale, large (10%) and
// small (1%) SweepCapacity sizes — the same formula the sweep drivers use.
struct GoldenCase {
  const char* dataset;
  const char* policy;
  uint64_t large_hits;
  uint64_t small_hits;
};

constexpr double kGoldenScale = 0.05;

void CheckGolden(const GoldenCase& c) {
  const Trace trace = GenerateDatasetTrace(DatasetByName(c.dataset), 0, kGoldenScale);
  const TraceView view = TraceView::Borrow(trace);
  const uint64_t footprint = view.stats().num_objects;
  const std::vector<uint64_t> sizes = {SweepCapacity(footprint, true),
                                       SweepCapacity(footprint, false)};
  const MrcCurve curve = OnePassMrc(view, c.policy, sizes);
  EXPECT_EQ(curve.results[0].hits, c.large_hits)
      << c.dataset << "/" << c.policy << " large capacity " << sizes[0];
  EXPECT_EQ(curve.results[1].hits, c.small_hits)
      << c.dataset << "/" << c.policy << " small capacity " << sizes[1];
}

TEST(MrcGoldenTest, Fig06Fig07HitCountFingerprints) {
  const std::vector<GoldenCase> cases = {
      {"cdn1", "fifo", 19626, 14495},
      {"cdn1", "s3fifo", 20691, 16827},
      {"cdn1", "s3fifo-d", 20691, 16827},
      {"cdn1", "clock", 20293, 16025},
      {"cdn1", "sieve", 20564, 16673},
      {"msr", "fifo", 9225, 2709},
      {"msr", "s3fifo", 8925, 4552},
      {"msr", "s3fifo-d", 8932, 4552},
      {"msr", "clock", 9667, 3256},
      {"msr", "sieve", 7342, 4433},
      {"cdn1", "lru", 20234, 15839},
      {"msr", "lru", 9704, 3137},
  };
  for (const GoldenCase& c : cases) {
    CheckGolden(c);
  }
}

}  // namespace
}  // namespace s3fifo
