// Fig. 8: throughput scaling with thread count for the concurrent cache
// prototypes (strict LRU, Cachelib-style optimized LRU, CLOCK, TinyLFU,
// S3-FIFO), on a Zipf(1.0) workload at a large (low miss ratio) and small
// (high miss ratio) cache size. Reports the hit ratio at *every* thread
// count (a concurrency bug that corrupts eviction shows up as a hit-ratio
// drift with threads, not just as a throughput artifact) and emits
// BENCH_fig08.json for cross-PR tracking.
//
// NOTE: true scaling needs as many physical cores as threads. On a machine
// with fewer cores the harness still runs (threads time-share), measuring
// per-op overhead and lock contention rather than parallel speedup; the
// hardware core count is printed so results can be interpreted.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_lru.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/concurrent_tinylfu.h"
#include "src/concurrent/replay.h"

namespace s3fifo {
namespace {

std::unique_ptr<ConcurrentCache> MakeCache(const std::string& kind,
                                           const ConcurrentCacheConfig& config) {
  if (kind == "lru-strict") {
    return std::make_unique<ConcurrentLruStrict>(config);
  }
  if (kind == "lru-optimized") {
    return std::make_unique<ConcurrentLruOptimized>(config);
  }
  if (kind == "clock") {
    return std::make_unique<ConcurrentClock>(config);
  }
  if (kind == "tinylfu") {
    return std::make_unique<ConcurrentTinyLfu>(config);
  }
  return std::make_unique<ConcurrentS3Fifo>(config);
}

void Run() {
  PrintHeader("Fig. 8: throughput scaling with CPU cores", "Fig. 8a (large) / 8b (small)");
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads on this machine: %u\n", hw_threads);

  const double scale = BenchScale();
  const uint64_t num_objects = 1 << 18;
  const uint64_t per_thread = static_cast<uint64_t>(400000 * scale);
  const std::vector<unsigned> thread_counts = {1, 2, 4, 8, 16};

  JsonFields summary;
  summary.Add("hardware_threads", hw_threads)
      .Add("num_objects", num_objects)
      .Add("requests_per_thread", per_thread)
      .Add("zipf_alpha", 1.0);
  std::vector<JsonFields> rows;

  for (const bool large : {true, false}) {
    ConcurrentCacheConfig config;
    config.capacity_objects = large ? (num_objects / 2) : (num_objects / 64);
    config.value_size = 64;
    std::printf("\n--- %s cache (%lu objects, Zipf 1.0 over %lu objects) ---\n",
                large ? "large" : "small", (unsigned long)config.capacity_objects,
                (unsigned long)num_objects);
    std::printf("columns: Mops (hit ratio) per thread count\n");
    std::printf("%-14s", "cache");
    for (unsigned t : thread_counts) {
      std::printf("   T=%-2u          ", t);
    }
    std::printf("\n");
    for (const char* kind : {"lru-strict", "lru-optimized", "clock", "tinylfu", "s3fifo"}) {
      std::printf("%-14s", kind);
      for (unsigned threads : thread_counts) {
        auto cache = MakeCache(kind, config);
        ReplayOptions options;
        options.num_threads = threads;
        options.requests_per_thread = per_thread;
        options.num_objects = num_objects;
        options.zipf_alpha = 1.0;
        const ReplayResult r = ReplayClosedLoop(*cache, options);
        std::printf("  %7.2f (%.3f)", r.throughput_mops, r.hit_ratio);
        rows.push_back(JsonFields()
                           .Add("cache", kind)
                           .Add("cache_size", large ? "large" : "small")
                           .Add("capacity_objects", config.capacity_objects)
                           .Add("threads", threads)
                           .Add("throughput_mops", r.throughput_mops)
                           .Add("hit_ratio", r.hit_ratio)
                           .Add("batch_size", options.batch_size)
                           .Add("svc_p50_ns", r.latency.Percentile(50))
                           .Add("svc_p99_ns", r.latency.Percentile(99))
                           .Add("svc_p999_ns", r.latency.Percentile(99.9)));
      }
      std::printf("\n");
    }
  }
  WriteBenchJson("fig08", summary, rows);
  std::printf("\npaper shape (Fig. 8): on a 16-core box, s3fifo reaches >6x the\n"
              "throughput of optimized LRU at 16 threads; optimized LRU stops scaling\n"
              "past ~2 cores; tinylfu trails LRU; strict LRU is flat. On a 1-core box\n"
              "no cache can scale (threads time-share); the meaningful signals are\n"
              "that s3fifo/clock degrade least as threads (and lock handoffs) grow,\n"
              "that tinylfu pays the largest per-op cost, and that each cache's hit\n"
              "ratio stays flat across thread counts (concurrency does not corrupt\n"
              "eviction decisions).\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
