// Miss-ratio-curve profiler: exact curves for selected policies on one
// dataset-like trace, each from a single trace traversal of the one-pass
// MRC engine (the FIFO family's per-size replicas, LRU's recency stack).
//
//   $ ./mrc_profiler [DATASET]   (default: cloudphysics)
//   $ ./mrc_profiler --help      (usage and the dataset names)
//
// Exits 2 on an unknown dataset or extra arguments.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/mrc_engine.h"
#include "src/trace/trace_view.h"
#include "src/workload/dataset_profiles.h"

namespace {

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [DATASET]   (default: cloudphysics)\ndatasets:", argv0);
  for (const s3fifo::DatasetProfile& d : s3fifo::AllDatasetProfiles()) {
    std::fprintf(out, " %s", d.name.c_str());
  }
  std::fprintf(out, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace s3fifo;
  const std::string arg = argc > 1 ? argv[1] : "cloudphysics";
  if (arg == "--help" || arg == "-h") {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  if (argc > 2) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  const DatasetProfile* profile = nullptr;
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    if (d.name == arg) {
      profile = &d;
    }
  }
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown dataset '%s'\n", arg.c_str());
    PrintUsage(stderr, argv[0]);
    return 2;
  }

  Trace trace = GenerateDatasetTrace(*profile, 0, 1.0);
  const TraceView view = TraceView::Borrow(trace);
  const uint64_t footprint = trace.Stats().num_objects;
  std::vector<uint64_t> sizes;
  for (double f : {0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    sizes.push_back(std::max<uint64_t>(static_cast<uint64_t>(footprint * f), 10));
  }

  std::printf("%s-like trace: %lu requests, %lu objects\n\n", arg.c_str(),
              (unsigned long)trace.size(), (unsigned long)footprint);
  std::printf("%-10s", "size");
  for (uint64_t s : sizes) {
    std::printf(" %8lu", (unsigned long)s);
  }
  std::printf("\n");

  CacheConfig config;
  config.capacity = 1;
  config.count_based = true;
  for (const char* policy : {"fifo", "sieve", "s3fifo", "lru"}) {
    const auto t0 = std::chrono::steady_clock::now();
    const MrcCurve curve = OnePassMrc(view, policy, sizes, config);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("%-10s", policy);
    for (const SimResult& r : curve.results) {
      std::printf(" %8.4f", r.MissRatio());
    }
    std::printf("  (%.0f ms)\n", std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return 0;
}
