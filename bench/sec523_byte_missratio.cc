// §5.2.3: byte miss ratio. Same sweep as Fig. 6 but with byte-capacity
// caches (10% / 1% of the trace footprint in bytes) and byte-weighted miss
// accounting. The paper reports results "not significantly different from
// the [request] miss ratio", with S3-FIFO ahead at almost all percentiles,
// and parity between S3-FIFO and LRB on CDN traces.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "bench/sweep.h"
#include "src/core/cache_factory.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"

namespace s3fifo {
namespace {

void Run() {
  PrintHeader("§5.2.3: byte miss ratio across traces", "§5.2.3 (text; figure omitted in paper)");
  const double scale = BenchScale() * 0.25;

  const std::vector<std::string> policies = {"s3fifo", "tinylfu", "lirs", "2q",
                                             "arc",    "lru",     "lrb-lite"};
  std::map<std::string, std::vector<double>> red_large, red_small;

  ForEachSweepCase(scale, [&](const SweepCase& c) {
    const uint64_t footprint_bytes = c.trace.Stats().footprint_bytes;
    for (const bool large : {true, false}) {
      CacheConfig config;
      config.capacity = std::max<uint64_t>(footprint_bytes / (large ? 10 : 100), 4096);
      config.count_based = false;
      auto fifo = CreateCache("fifo", config);
      const double mr_fifo = Simulate(c.trace, *fifo).ByteMissRatio();
      for (const std::string& policy : policies) {
        auto cache = CreateCache(policy, config);
        (large ? red_large : red_small)[policy].push_back(
            MissRatioReduction(Simulate(c.trace, *cache).ByteMissRatio(), mr_fifo));
      }
    }
  });

  for (const bool large : {true, false}) {
    std::printf("\n--- %s cache (%s of footprint bytes) ---\n", large ? "large" : "small",
                large ? "10%" : "1%");
    for (const std::string& policy : policies) {
      std::printf("%s\n",
                  FormatPercentileRow(policy, Percentiles((large ? red_large : red_small)[policy]))
                      .c_str());
    }
  }
  std::printf("\npaper shape (§5.2.3): the byte-miss-ratio picture mirrors Fig. 6 —\n"
              "s3fifo presents larger reductions at almost all percentiles; s3fifo and\n"
              "the learned lrb-lite baseline have similar efficiency despite s3fifo\n"
              "being far simpler.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
