// Fig. 3: distribution of the one-hit-wonder ratio across all traces at
// sequence lengths of 100% / 50% / 10% / 1% of each trace's objects.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/one_hit_wonder.h"
#include "src/sim/metrics.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

void Run() {
  PrintHeader("Fig. 3: one-hit-wonder ratio across all traces", "Fig. 3");
  const double scale = BenchScale() * 0.4;

  std::vector<double> at_full, at_50, at_10, at_1;
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    for (uint32_t i = 0; i < d.num_traces; ++i) {
      Trace t = GenerateDatasetTrace(d, i, scale);
      at_full.push_back(t.Stats().one_hit_wonder_ratio);
      at_50.push_back(SubSequenceOneHitWonderRatio(t, 0.5, 8, 3));
      at_10.push_back(SubSequenceOneHitWonderRatio(t, 0.1, 8, 3));
      at_1.push_back(SubSequenceOneHitWonderRatio(t, 0.01, 8, 3));
    }
  }
  std::printf("traces: %zu\n\n", at_full.size());
  std::printf("%s\n", FormatPercentileRow("full trace", Percentiles(at_full)).c_str());
  std::printf("%s\n", FormatPercentileRow("50% objects", Percentiles(at_50)).c_str());
  std::printf("%s\n", FormatPercentileRow("10% objects", Percentiles(at_10)).c_str());
  std::printf("%s\n", FormatPercentileRow("1% objects", Percentiles(at_1)).c_str());
  std::printf("\npaper medians: full 0.26, 50%% 0.38, 10%% 0.72, 1%% 0.78 — the median\n"
              "must increase monotonically as the sequence shortens.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
