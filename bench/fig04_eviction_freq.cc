// Fig. 4: the frequency (number of post-insertion requests) of objects at
// eviction, for LRU and Belady on the MSR-like and Twitter-like profiles at
// cache sizes of 10% and 1% of the trace footprint.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/eviction_age.h"
#include "src/core/cache_factory.h"
#include "src/trace/next_access.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

void Run() {
  PrintHeader("Fig. 4: frequency of objects at eviction", "Fig. 4");
  const double scale = BenchScale();

  for (const char* dataset : {"twitter", "msr"}) {
    Trace t = GenerateDatasetTrace(DatasetByName(dataset), 0, scale);
    AnnotateNextAccess(t);
    const uint64_t footprint = t.Stats().num_objects;
    for (double size_frac : {0.10, 0.01}) {
      const uint64_t capacity =
          std::max<uint64_t>(static_cast<uint64_t>(footprint * size_frac), 100);
      std::printf("\n%s-like trace, cache = %.0f%% of footprint (%lu objects)\n", dataset,
                  size_frac * 100, (unsigned long)capacity);
      std::printf("%-8s %8s |", "policy", "missr");
      for (int k = 0; k <= 4; ++k) {
        std::printf(" freq=%d%s", k, k == 4 ? "+" : " ");
      }
      std::printf("\n");
      for (const char* policy : {"lru", "belady"}) {
        CacheConfig config;
        config.capacity = capacity;
        auto cache = CreateCache(policy, config);
        const EvictionProfile p = CollectEvictionProfile(t, *cache, 4);
        std::printf("%-8s %8.4f |", policy, p.miss_ratio);
        for (double f : p.freq_at_eviction) {
          std::printf("  %5.2f ", f);
        }
        std::printf("\n");
      }
    }
  }
  std::printf("\npaper shape: at the large size the twitter-like trace evicts ~25%%\n"
              "zero-reuse objects (both policies); the msr-like trace evicts far more\n"
              "(~82%% LRU / ~68%% Belady) — the freq=0 column dominates on msr.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
