// Table 1: dataset statistics — requests, objects, op mix, and the
// one-hit-wonder ratio of the full trace and of 10% / 1% sub-sequences.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/one_hit_wonder.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

void Run() {
  PrintHeader("Table 1: synthetic dataset inventory",
              "Table 1 (one-hit-wonder columns: full / 10% / 1%)");
  const double scale = BenchScale() * 0.5;
  std::printf("%-14s %-7s %7s %10s %10s %7s %7s | %6s %6s %6s\n", "dataset", "type", "traces",
              "requests", "objects", "write%", "del%", "ohw", "ohw10", "ohw1");
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    uint64_t requests = 0, objects = 0, sets = 0, deletes = 0;
    double ohw_full = 0, ohw_10 = 0, ohw_1 = 0;
    const uint32_t traces = std::max<uint32_t>(1, d.num_traces / 2);
    for (uint32_t i = 0; i < traces; ++i) {
      Trace t = GenerateDatasetTrace(d, i, scale);
      const TraceStats& s = t.Stats();
      requests += s.num_requests;
      objects += s.num_objects;
      sets += s.num_sets;
      deletes += s.num_deletes;
      ohw_full += s.one_hit_wonder_ratio;
      ohw_10 += SubSequenceOneHitWonderRatio(t, 0.10, 10, 7);
      ohw_1 += SubSequenceOneHitWonderRatio(t, 0.01, 10, 7);
    }
    std::printf("%-14s %-7s %7u %10lu %10lu %6.1f%% %6.1f%% | %6.2f %6.2f %6.2f\n",
                d.name.c_str(), d.cache_type.c_str(), traces, (unsigned long)requests,
                (unsigned long)objects, 100.0 * sets / std::max<uint64_t>(requests, 1),
                100.0 * deletes / std::max<uint64_t>(requests, 1), ohw_full / traces,
                ohw_10 / traces, ohw_1 / traces);
  }
  std::printf("\npaper (Table 1): one-hit-wonder rises sharply from the full trace to the\n"
              "10%% and 1%% sub-sequence columns for every dataset; KV datasets (twitter,\n"
              "socialnet) have the lowest ratios, CDN/object datasets the highest.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
