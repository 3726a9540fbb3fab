// Flash-cache admission demo (paper §5.4): compare write bytes and miss
// ratio across admission policies on a CDN-like trace, with a pure
// segment-FIFO flash tier behind a 1% DRAM front.
//
//   $ ./flash_admission
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/flash/log_flash_cache.h"
#include "src/workload/dataset_profiles.h"

int main() {
  using namespace s3fifo;

  Trace trace = GenerateDatasetTrace(DatasetByName("wiki"), 0, 1.0);
  const uint64_t footprint = trace.Stats().footprint_bytes;
  const uint64_t flash = footprint / 10;
  const uint64_t dram = flash / 100;  // 1% DRAM
  const uint64_t segment = 256 * 1024;

  std::printf("wiki-like trace: %.1f MB footprint, flash %.1f MB, DRAM %.1f MB\n\n",
              footprint / 1048576.0, flash / 1048576.0, dram / 1048576.0);
  std::printf("%-16s %14s %12s %12s\n", "admission", "write-bytes(n)", "miss-ratio",
              "flash-hits");

  for (const char* scheme : {"none", "probabilistic", "flashield", "s3fifo"}) {
    LogFlashCacheConfig config;
    config.dram_capacity_bytes = dram;
    config.dram_discipline = std::string(scheme) == "s3fifo" ? DramDiscipline::kSmallFifo
                                                             : DramDiscipline::kLru;
    config.log.segment_bytes = segment;
    config.log.num_segments = std::max<uint64_t>(flash / segment, 1);
    config.log.gc_readmit = false;
    LogStructuredFlashCache cache(config, CreateAdmissionPolicy(scheme, trace.size() / 10, 3));
    for (const Request& r : trace.requests()) {
      cache.Get(r);
    }
    std::printf("%-16s %14.3f %12.4f %12lu\n", scheme,
                static_cast<double>(cache.DeviceBytesWritten()) / static_cast<double>(footprint),
                cache.stats().MissRatio(), (unsigned long)cache.stats().log_hits);
  }
  std::printf("\nthe s3fifo small-FIFO filter should cut write bytes vs 'none' while\n"
              "keeping the miss ratio at or below the other admission schemes.\n");
  return 0;
}
