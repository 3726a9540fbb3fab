// §6.3 ablation: "LRU or FIFO?" — replace S and/or M with LRU queues and
// compare miss ratios across traces. The paper's conclusion: with quick
// demotion in place, the queue type does not matter. One task per trace
// (bench/sweep.h) runs all five variants.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "bench/sweep.h"
#include "src/sim/metrics.h"

namespace s3fifo {
namespace {

void Run(const BenchOptions& opts) {
  PrintHeader("Ablation: FIFO vs LRU queues inside S3-FIFO", "§6.3");
  const double scale = BenchScale() * 0.25;

  const std::vector<PolicyVariant> variants = {
      {"fifo-S/fifo-M", "s3fifo", ""},
      {"lru-S/fifo-M", "s3fifo", "small_lru=1"},
      {"fifo-S/lru-M", "s3fifo", "main_lru=1"},
      {"lru-S/lru-M", "s3fifo", "small_lru=1,main_lru=1"},
      {"fifo-S/sieve-M", "s3fifo", "main_sieve=1"},  // §7: Sieve as the main queue
  };
  std::map<std::string, std::vector<double>> reductions;

  const SweepSummary summary = RunMissRatioSweep(
      scale, variants, /*include_small=*/false,
      [&](const SweepCell& c) {
        const double mr_fifo = c.fifo.MissRatio();
        for (size_t vi = 0; vi < variants.size(); ++vi) {
          reductions[variants[vi].label].push_back(
              MissRatioReduction(c.results[vi].MissRatio(), mr_fifo));
        }
      },
      opts.threads, /*progress=*/true, ParseMrcMode(opts.mrc));

  std::vector<JsonFields> json_rows;
  for (const PolicyVariant& v : variants) {
    const PercentileRow row = Percentiles(reductions[v.label]);
    std::printf("%s\n", FormatPercentileRow(v.label, row).c_str());
    json_rows.push_back(JsonFields()
                            .Add("variant", v.label)
                            .Add("mean_reduction", row.mean)
                            .Add("p10", row.p10)
                            .Add("p90", row.p90));
  }
  std::printf("\npaper shape (§6.3): 'LRU queues do not improve efficiency' — all four\n"
              "rows should be within noise of each other at every percentile.\n");
  PrintSweepSummary(summary);
  WriteBenchJson("ablation_queue_type",
                 JsonFields()
                     .Add("scale", scale)
                     .Add("threads", summary.threads)
                     .Add("wall_ms", summary.wall_ms)
                     .Add("simulated_requests", summary.simulated_requests)
                     .Add("requests_per_sec", summary.requests_per_sec),
                 json_rows);
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  const s3fifo::BenchOptions opts = s3fifo::ParseBenchArgs(argc, argv);
  return s3fifo::RunBenchMain([&] { s3fifo::Run(opts); });
}
