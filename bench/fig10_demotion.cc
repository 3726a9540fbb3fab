// Fig. 10 + Table 2: quick-demotion speed and precision, and the miss ratio
// as a function of the probationary-queue size, for ARC, TinyLFU, and
// S3-FIFO on the Twitter-like and MSR-like traces at large (10%) and small
// (1%) cache sizes. Speed is normalised to the LRU eviction age (§6.1).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/demotion.h"
#include "src/core/cache_factory.h"
#include "src/flash/log_flash_cache.h"
#include "src/sim/simulator.h"
#include "src/trace/next_access.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

const double kQueueSizes[] = {0.40, 0.30, 0.20, 0.10, 0.05, 0.02, 0.01};

void Run() {
  PrintHeader("Fig. 10 + Table 2: quick-demotion speed and precision", "Fig. 10a-d, Table 2");
  const double scale = BenchScale();

  for (const char* dataset : {"twitter", "msr"}) {
    Trace t = GenerateDatasetTrace(DatasetByName(dataset), 0, scale);
    AnnotateNextAccess(t);
    const uint64_t footprint = t.Stats().num_objects;
    for (const double size_frac : {0.10, 0.01}) {
      CacheConfig config;
      config.capacity = std::max<uint64_t>(static_cast<uint64_t>(footprint * size_frac), 100);
      const double lru_age = LruEvictionAge(t, config);
      {
        auto lru = CreateCache("lru", config);
        auto arc = CreateCache("arc", config);
        const DemotionMetrics arc_m = MeasureDemotion(t, *arc, lru_age);
        std::printf("\n%s-like, cache=%.0f%% footprint (%lu objects), LRU evict age %.0f, "
                    "LRU missr %.4f\n",
                    dataset, size_frac * 100, (unsigned long)config.capacity, lru_age,
                    Simulate(t, *lru).MissRatio());
        std::printf("%-14s %7s %10s %10s %10s\n", "algorithm", "S-size", "speed", "precision",
                    "miss-ratio");
        std::printf("%-14s %7s %10.2f %10.3f %10.4f\n", "arc", "adapt", arc_m.normalized_speed,
                    arc_m.precision, arc_m.miss_ratio);
      }
      for (const char* algo : {"tinylfu", "s3fifo"}) {
        for (double s : kQueueSizes) {
          CacheConfig c2 = config;
          char params[64];
          if (std::string(algo) == "tinylfu") {
            std::snprintf(params, sizeof(params), "window_ratio=%.2f", s);
          } else {
            std::snprintf(params, sizeof(params), "small_ratio=%.2f", s);
          }
          c2.params = params;
          auto cache = CreateCache(algo, c2);
          const DemotionMetrics m = MeasureDemotion(t, *cache, lru_age);
          std::printf("%-14s %6.0f%% %10.2f %10.3f %10.4f\n", algo, s * 100,
                      m.normalized_speed, m.precision, m.miss_ratio);
        }
      }
    }
  }
  // Flash companion: the same probationary-queue-size axis, but with the
  // small queue as the DRAM tier of the log-structured flash cache. Quick
  // demotion is exactly what protects the flash device — a smaller S evicts
  // one-hit wonders before they earn admission, so WA and device bytes fall
  // with S until the queue is too small to accumulate the admission signal.
  {
    std::printf("\n--- flash WA vs small-queue (DRAM) size: twitter-like trace, "
                "log-structured backend, s3fifo admission ---\n");
    ZipfWorkloadConfig wc = DatasetByName("twitter").base;
    wc.num_objects = static_cast<uint64_t>(wc.num_objects * scale);
    wc.num_requests = static_cast<uint64_t>(wc.num_requests * scale);
    wc.size_mean_bytes = 4096;
    wc.size_sigma = 0.6;
    wc.seed = 11;
    const Trace t = GenerateZipfTrace(wc);
    const uint64_t footprint_bytes = t.Stats().footprint_bytes;
    const uint64_t flash_bytes = footprint_bytes / 10;
    const uint64_t segment_bytes = 256 * 1024;
    std::printf("%-8s %10s %12s %7s %10s\n", "S-size", "miss-ratio", "device-MB", "WA",
                "gc-MB");
    for (const double s : kQueueSizes) {
      LogFlashCacheConfig config;
      config.dram_capacity_bytes =
          std::max<uint64_t>(static_cast<uint64_t>(flash_bytes * s), 16 << 10);
      config.dram_discipline = DramDiscipline::kSmallFifo;
      config.log.segment_bytes = segment_bytes;
      config.log.num_segments = std::max<uint64_t>(flash_bytes / segment_bytes, 1);
      config.log.gc_readmit = true;
      LogStructuredFlashCache cache(
          config, CreateAdmissionPolicy("s3fifo", /*reuse_horizon=*/t.size() / 10, /*seed=*/11));
      for (const Request& r : t.requests()) {
        cache.Get(r);
      }
      std::printf("%6.0f%% %10.4f %12.1f %7.3f %10.1f\n", s * 100, cache.stats().MissRatio(),
                  cache.DeviceBytesWritten() / 1048576.0, cache.WriteAmplification(),
                  cache.log_stats().gc_rewrite_bytes / 1048576.0);
    }
  }

  std::printf("\npaper shape (Fig. 10 / Table 2): shrinking S monotonically increases\n"
              "demotion speed for both tinylfu and s3fifo; s3fifo's precision rises to\n"
              "a peak then falls as S grows; at matched speed s3fifo's precision is at\n"
              "or above tinylfu's, and higher precision tracks lower miss ratios.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
