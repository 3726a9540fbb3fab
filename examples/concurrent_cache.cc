// Concurrent cache demo: closed-loop replay against the thread-safe caches
// (paper §5.3), printing throughput and hit ratio.
//
//   $ ./concurrent_cache [threads]   (default 4)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_lru.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/concurrent_tinylfu.h"
#include "src/concurrent/replay.h"

int main(int argc, char** argv) {
  using namespace s3fifo;
  const unsigned threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;

  ConcurrentCacheConfig config;
  config.capacity_objects = 1 << 16;
  config.value_size = 64;

  ReplayOptions options;
  options.num_threads = threads;
  options.requests_per_thread = 500000;
  options.num_objects = 1 << 18;
  options.zipf_alpha = 1.0;

  std::printf("replay: %u threads x %lu requests, Zipf(1.0) over %lu objects, cache %lu\n\n",
              threads, (unsigned long)options.requests_per_thread,
              (unsigned long)options.num_objects, (unsigned long)config.capacity_objects);
  std::printf("%-16s %12s %10s\n", "cache", "Mops/s", "hit-ratio");

  std::unique_ptr<ConcurrentCache> caches[] = {
      std::make_unique<ConcurrentLruStrict>(config),
      std::make_unique<ConcurrentLruOptimized>(config),
      std::make_unique<ConcurrentClock>(config),
      std::make_unique<ConcurrentTinyLfu>(config),
      std::make_unique<ConcurrentS3Fifo>(config),
  };
  for (auto& cache : caches) {
    const ReplayResult r = ReplayClosedLoop(*cache, options);
    std::printf("%-16s %12.2f %10.4f\n", cache->Name().c_str(), r.throughput_mops,
                r.hit_ratio);
  }
  return 0;
}
