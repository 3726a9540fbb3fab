// Fig. 9: flash cache admission — write bytes (normalised to the trace's
// unique bytes) and miss ratio for: no admission (FIFO), probabilistic 20%,
// Flashield-like learned admission, and the S3-FIFO small-queue filter, on
// Wikimedia-CDN-like and Tencent-Photo-like traces, at DRAM sizes of 0.1%,
// 1%, and 10% of the flash cache.
//
// The flash tier is the pure segment-FIFO log (no GC readmission, no set
// store), so every admitted byte is written exactly once (WA == 1) and the
// write-bytes column is the admitted bytes. Exits 1 if any (dataset, DRAM)
// cell breaks the paper's shape: s3fifo must have the lowest miss ratio and
// write fewer bytes than no admission, and probabilistic admission must not
// miss less than no admission.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/flash/log_flash_cache.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {
namespace {

constexpr const char* kSchemes[] = {"none", "probabilistic", "flashield", "s3fifo"};
constexpr int kNumSchemes = 4;

bool Run() {
  PrintHeader("Fig. 9: flash write bytes and miss ratio by admission policy",
              "Fig. 9 (left: wiki-like, right: tencent-photo-like)");
  const double scale = BenchScale();
  bool shape_ok = true;

  for (const char* dataset : {"wiki", "tencent_photo"}) {
    // Use the dataset's access pattern with the paper's ~4KB reference
    // object size: production flash caches are orders of magnitude larger
    // than our scaled traces, so keeping the original large CDN objects
    // would leave the "0.1% DRAM" tier smaller than a single object.
    ZipfWorkloadConfig wc = DatasetByName(dataset).base;
    wc.num_objects = static_cast<uint64_t>(wc.num_objects * scale * 4);
    wc.num_requests = static_cast<uint64_t>(wc.num_requests * scale * 4);
    wc.size_mean_bytes = 4096;
    wc.size_sigma = 0.6;
    wc.seed = 11;
    Trace t = GenerateZipfTrace(wc);
    const uint64_t footprint_bytes = t.Stats().footprint_bytes;
    const uint64_t flash_bytes = footprint_bytes / 10;  // 10% of footprint (paper)
    std::printf("\n--- %s-like trace: %lu requests, footprint %.1f MB, flash %.1f MB ---\n",
                dataset, (unsigned long)t.size(), footprint_bytes / 1048576.0,
                flash_bytes / 1048576.0);
    std::printf("%-22s %9s %12s %10s\n", "scheme", "dram", "write-bytes", "miss-ratio");

    // 256 KB segments, but at least 16 of them: the log's geometry must not
    // shrink to a few segments at small scales.
    const uint64_t segment_bytes = std::clamp<uint64_t>(flash_bytes / 16, 1, 256 * 1024);
    for (const double dram_frac : {0.001, 0.01, 0.10}) {
      const uint64_t dram_bytes =
          std::max<uint64_t>(static_cast<uint64_t>(flash_bytes * dram_frac), 16 << 10);
      double miss_ratio[kNumSchemes];
      uint64_t write_bytes[kNumSchemes];
      for (int i = 0; i < kNumSchemes; ++i) {
        const char* scheme = kSchemes[i];
        LogFlashCacheConfig config;
        config.dram_capacity_bytes = dram_bytes;
        config.dram_discipline = std::string(scheme) == "s3fifo" ? DramDiscipline::kSmallFifo
                                                                 : DramDiscipline::kLru;
        config.log.segment_bytes = segment_bytes;
        config.log.num_segments = std::max<uint64_t>(flash_bytes / segment_bytes, 1);
        config.log.ordering = LogOrdering::kFifo;
        config.log.gc_readmit = false;
        LogStructuredFlashCache cache(
            config, CreateAdmissionPolicy(scheme, /*reuse_horizon=*/t.size() / 10, /*seed=*/11));
        for (const Request& r : t.requests()) {
          cache.Get(r);
        }
        miss_ratio[i] = cache.stats().MissRatio();
        write_bytes[i] = cache.DeviceBytesWritten();
        std::printf("%-22s %8.1f%% %12.3f %10.4f\n", scheme, dram_frac * 100,
                    static_cast<double>(write_bytes[i]) / static_cast<double>(footprint_bytes),
                    miss_ratio[i]);
        if (write_bytes[i] != cache.AdmittedBytes()) {
          std::printf("SHAPE %s %.1f%% %s: WA %.6f != 1\n", dataset, dram_frac * 100, scheme,
                      cache.WriteAmplification());
          shape_ok = false;
        }
      }
      // Indices into kSchemes.
      const int none = 0, probabilistic = 1, s3 = 3;
      for (int i = 0; i < s3; ++i) {
        if (miss_ratio[i] < miss_ratio[s3]) {
          std::printf("SHAPE %s %.1f%%: %s misses less than s3fifo (%.4f < %.4f)\n", dataset,
                      dram_frac * 100, kSchemes[i], miss_ratio[i], miss_ratio[s3]);
          shape_ok = false;
        }
      }
      if (write_bytes[s3] >= write_bytes[none]) {
        std::printf("SHAPE %s %.1f%%: s3fifo writes no fewer bytes than none\n", dataset,
                    dram_frac * 100);
        shape_ok = false;
      }
      if (miss_ratio[probabilistic] < miss_ratio[none]) {
        std::printf("SHAPE %s %.1f%%: probabilistic misses less than none (%.4f < %.4f)\n",
                    dataset, dram_frac * 100, miss_ratio[probabilistic], miss_ratio[none]);
        shape_ok = false;
      }
      std::printf("\n");
    }
  }
  std::printf("paper shape (Fig. 9): 'none' writes the most bytes with a low miss\n"
              "ratio; probabilistic cuts writes but raises the miss ratio regardless of\n"
              "DRAM size; flashield approaches s3fifo only at 10%% DRAM and degrades as\n"
              "DRAM shrinks; the s3fifo filter gets BOTH fewer writes and the lowest\n"
              "miss ratio even at 0.1%% DRAM.\n");
  std::printf("shape check: %s\n", shape_ok ? "PASS" : "FAIL");
  return shape_ok;
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  return s3fifo::Run() ? 0 : 1;
}
