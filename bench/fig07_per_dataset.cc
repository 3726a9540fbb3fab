// Fig. 7: the mean miss-ratio reduction (vs FIFO) per dataset, large and
// small cache sizes, for the selected algorithms — plus the paper's
// robustness headline: on how many datasets is each algorithm the best /
// top-3? One task per trace (bench/sweep.h) generates the trace and runs
// every policy at both sizes.
#include <cstdio>
#include <map>

#include "bench/bench_util.h"
#include "bench/sweep.h"
#include "src/sim/metrics.h"

namespace s3fifo {
namespace {

const std::vector<std::string>& SelectedPolicies() {
  static const std::vector<std::string>* p = new std::vector<std::string>{
      "s3fifo", "tinylfu", "lirs", "2q", "arc", "lru"};
  return *p;
}

void Run(const BenchOptions& opts) {
  PrintHeader("Fig. 7: mean miss-ratio reduction per dataset", "Fig. 7a/7b");
  const double scale = BenchScale() * 0.25;
  const std::vector<PolicyVariant> variants = VariantsFromPolicyNames(SelectedPolicies());

  // sums[large][policy][dataset] = (sum, count)
  std::map<std::string, std::map<std::string, std::pair<double, int>>> sum_large, sum_small;

  const SweepSummary summary = RunMissRatioSweep(
      scale, variants, /*include_small=*/true,
      [&](const SweepCell& c) {
        const double mr_fifo = c.fifo.MissRatio();
        for (size_t vi = 0; vi < variants.size(); ++vi) {
          const double red = MissRatioReduction(c.results[vi].MissRatio(), mr_fifo);
          auto& cell = (c.large ? sum_large : sum_small)[variants[vi].label][c.dataset->name];
          cell.first += red;
          cell.second += 1;
        }
      },
      opts.threads, /*progress=*/true, ParseMrcMode(opts.mrc));

  std::vector<JsonFields> json_rows;
  for (const bool large : {true, false}) {
    auto& sums = large ? sum_large : sum_small;
    std::printf("\n--- %s cache ---\n%-14s", large ? "large" : "small", "dataset");
    for (const auto& policy : SelectedPolicies()) {
      std::printf(" %11s", policy.c_str());
    }
    std::printf("\n");
    std::map<std::string, int> best_count, top3_count;
    for (const DatasetProfile& d : AllDatasetProfiles()) {
      std::printf("%-14s", d.name.c_str());
      std::vector<std::pair<double, std::string>> ranked;
      for (const auto& policy : SelectedPolicies()) {
        const auto& cell = sums[policy][d.name];
        const double mean = cell.second ? cell.first / cell.second : 0.0;
        std::printf(" %+11.4f", mean);
        ranked.emplace_back(-mean, policy);
        json_rows.push_back(JsonFields()
                                .Add("policy", policy)
                                .Add("dataset", d.name)
                                .Add("size", large ? "large" : "small")
                                .Add("mean_reduction", mean));
      }
      std::sort(ranked.begin(), ranked.end());
      best_count[ranked[0].second]++;
      for (size_t k = 0; k < 3 && k < ranked.size(); ++k) {
        top3_count[ranked[k].second]++;
      }
      std::printf("\n");
    }
    std::printf("best-on-N-datasets: ");
    for (const auto& policy : SelectedPolicies()) {
      std::printf("%s=%d ", policy.c_str(), best_count[policy]);
    }
    std::printf("\ntop3-on-N-datasets: ");
    for (const auto& policy : SelectedPolicies()) {
      std::printf("%s=%d ", policy.c_str(), top3_count[policy]);
    }
    std::printf("\n");
  }
  std::printf("\npaper shape (Fig. 7 / §5.2.2): s3fifo is the best algorithm on 10/14\n"
              "datasets at the large size (7/14 at the small size) and top-3 on 13/14;\n"
              "no other algorithm is best on more than 3.\n");
  PrintSweepSummary(summary);
  WriteBenchJson("fig07_per_dataset",
                 JsonFields()
                     .Add("scale", scale)
                     .Add("mrc", opts.mrc)
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
