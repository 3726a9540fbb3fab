// Flash write-amplification bench: the log-structured backend's device-byte
// accounting across admission policies, log orderings, and the small-object
// set store, on the fig09 wiki-like and tencent-photo-like traces.
//
// Fig. 9 runs only the pure segment FIFO (WA 1); this bench adds GC
// readmission, RIPQ ordering and the set store. Every row carries
// device_bytes_written (what the flash absorbs) next to admitted_bytes
// (what the cache asked for), their ratio being the write amplification the
// admission policy + GC discipline produce together.
// Emits BENCH_flash.json for cross-PR tracking.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/flash/log_flash_cache.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

struct Backend {
  const char* name;
  LogOrdering ordering;
  bool gc_readmit;
  bool sets;  // carve 1/8 of flash into a set-associative small-object store
};

void Run() {
  PrintHeader("Flash WA: device bytes and write amplification by admission policy",
              "Fig. 9 WA axis (log-structured backend; RIPQ FAST'15, Kangaroo SOSP'21)");
  const double scale = BenchScale();
  const uint64_t segment_bytes = 256 * 1024;

  std::vector<JsonFields> rows;
  JsonFields summary;
  WallTimer total;

  const Backend backends[] = {
      {"log-fifo", LogOrdering::kFifo, false, false},
      {"log-fifo-readmit", LogOrdering::kFifo, true, false},
      {"log-ripq", LogOrdering::kRipq, true, false},
      {"log-ripq+sets", LogOrdering::kRipq, true, true},
  };

  for (const char* dataset : {"wiki", "tencent_photo"}) {
    // Same shaping as fig09: the dataset's access pattern at the paper's
    // ~4KB reference object size.
    ZipfWorkloadConfig wc = DatasetByName(dataset).base;
    wc.num_objects = static_cast<uint64_t>(wc.num_objects * scale * 4);
    wc.num_requests = static_cast<uint64_t>(wc.num_requests * scale * 4);
    wc.size_mean_bytes = 4096;
    wc.size_sigma = 0.6;
    wc.seed = 11;
    Trace t = GenerateZipfTrace(wc);
    const uint64_t footprint_bytes = t.Stats().footprint_bytes;
    const uint64_t flash_bytes = footprint_bytes / 10;
    const uint64_t dram_bytes = std::max<uint64_t>(flash_bytes / 100, 16 << 10);
    std::printf("\n--- %s-like trace: %lu requests, footprint %.1f MB, flash %.1f MB, "
                "dram %.1f MB ---\n",
                dataset, (unsigned long)t.size(), footprint_bytes / 1048576.0,
                flash_bytes / 1048576.0, dram_bytes / 1048576.0);
    std::printf("%-18s %-14s %10s %11s %11s %7s %10s\n", "backend", "admission",
                "miss-ratio", "admit-MB", "device-MB", "WA", "gc-MB");

    for (const Backend& backend : backends) {
      for (const char* scheme : {"none", "probabilistic", "flashield", "s3fifo"}) {
        LogFlashCacheConfig config;
        config.dram_capacity_bytes = dram_bytes;
        config.dram_discipline = std::string(scheme) == "s3fifo" ? DramDiscipline::kSmallFifo
                                                                 : DramDiscipline::kLru;
        config.log.segment_bytes = segment_bytes;
        config.log.ordering = backend.ordering;
        config.log.gc_readmit = backend.gc_readmit;
        config.log.ripq_sections = 4;
        config.log.insert_priority = 1;
        uint64_t log_bytes = flash_bytes;
        if (backend.sets) {
          const uint64_t set_budget = flash_bytes / 8;
          config.small_object_threshold = 1024;
          config.set_store.set_bytes = 4096;
          config.set_store.num_sets = std::max<uint64_t>(set_budget / 4096, 1);
          log_bytes -= set_budget;
        }
        config.log.num_segments = std::max<uint64_t>(log_bytes / segment_bytes, 1);

        WallTimer timer;
        LogStructuredFlashCache cache(
            config, CreateAdmissionPolicy(scheme, /*reuse_horizon=*/t.size() / 10, /*seed=*/11));
        for (const Request& r : t.requests()) {
          cache.Get(r);
        }
        const double ms = timer.ElapsedMs();
        const LogFlashCacheStats& stats = cache.stats();
        const double admit_mb = cache.AdmittedBytes() / 1048576.0;
        const double device_mb = cache.DeviceBytesWritten() / 1048576.0;
        std::printf("%-18s %-14s %10.4f %11.1f %11.1f %7.3f %10.1f\n", backend.name, scheme,
                    stats.MissRatio(), admit_mb, device_mb, cache.WriteAmplification(),
                    cache.log_stats().gc_rewrite_bytes / 1048576.0);

        JsonFields row;
        row.Add("dataset", dataset)
            .Add("backend", backend.name)
            .Add("admission", scheme)
            .Add("requests", static_cast<uint64_t>(t.size()))
            .Add("miss_ratio", stats.MissRatio())
            .Add("byte_miss_ratio", stats.ByteMissRatio())
            .Add("admitted_bytes", cache.AdmittedBytes())
            .Add("device_bytes_written", cache.DeviceBytesWritten())
            .Add("write_amplification", cache.WriteAmplification())
            .Add("log_admitted_bytes", cache.log_stats().admitted_bytes)
            .Add("log_device_bytes", cache.log_stats().device_bytes_written)
            .Add("gc_rewrite_bytes", cache.log_stats().gc_rewrite_bytes)
            .Add("set_admitted_bytes", cache.set_stats().admitted_bytes)
            .Add("set_device_bytes", cache.set_stats().device_bytes_written)
            .Add("set_page_writes", cache.set_stats().page_writes)
            .Add("set_bytes", cache.sets().set_bytes())
            .Add("flash_evictions", stats.flash_evictions)
            .Add("elapsed_ms", ms);
        rows.push_back(row);
      }
      std::printf("\n");
    }
  }

  std::printf("shape: every admission filter cuts device bytes 3-7x vs none, with the\n"
              "s3fifo filter taking the lowest miss ratio on every backend; readmission\n"
              "and RIPQ raise WA above 1.0 (the GC rewrite tax) in exchange for lower\n"
              "miss ratios; the set store pays page-granularity WA for sub-1KB objects.\n");

  summary.Add("scale", scale)
      .Add("segment_bytes", segment_bytes)
      .Add("elapsed_ms", total.ElapsedMs());
  WriteBenchJson("flash", summary, rows);
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
