// Fig. 1 + Fig. 2: the one-hit-wonder ratio vs sequence length.
//  - the Fig. 1 toy example, verified exactly;
//  - Fig. 2a/b: synthetic Zipf traces at skews 0.6 / 0.8 / 1.0 / 1.2;
//  - Fig. 2c/d: the MSR-like and Twitter-like dataset profiles.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/analysis/one_hit_wonder.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

const double kFractions[] = {0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0};

void PrintCurve(const char* label, const Trace& trace) {
  std::printf("%-16s", label);
  for (double f : kFractions) {
    std::printf(" %5.2f", SubSequenceOneHitWonderRatio(trace, f, 15, 11));
  }
  std::printf("\n");
}

void Run() {
  PrintHeader("Fig. 1 + Fig. 2: one-hit-wonder ratio vs sequence length",
              "Fig. 1 (toy), Fig. 2a-d");

  // Fig. 1 toy example.
  std::vector<Request> toy;
  for (uint64_t id : {'A', 'B', 'A', 'C', 'B', 'A', 'D', 'A', 'B', 'C', 'B', 'A', 'E', 'C',
                      'A', 'B', 'D'}) {
    Request r;
    r.id = id;
    toy.push_back(r);
  }
  Trace toy_trace(std::move(toy));
  std::printf("Fig.1 toy: full=%.2f (paper 0.20)  first7=%.2f (paper 0.50)  "
              "first4=%.2f (paper 0.67)\n\n",
              OneHitWonderRatio(toy_trace, 0, 17), OneHitWonderRatio(toy_trace, 0, 7),
              OneHitWonderRatio(toy_trace, 0, 4));

  std::printf("sequence length (fraction of unique objects):\n%-16s", "");
  for (double f : kFractions) {
    std::printf(" %5.2f", f);
  }
  std::printf("\n");

  const double scale = BenchScale();
  for (double alpha : {0.6, 0.8, 1.0, 1.2}) {
    ZipfWorkloadConfig c;
    c.num_objects = static_cast<uint64_t>(20000 * scale);
    c.num_requests = static_cast<uint64_t>(400000 * scale);
    c.alpha = alpha;
    c.seed = 42;
    Trace t = GenerateZipfTrace(c);
    char label[32];
    std::snprintf(label, sizeof(label), "zipf a=%.1f", alpha);
    PrintCurve(label, t);
  }
  std::printf("\n");
  PrintCurve("msr-like", GenerateDatasetTrace(DatasetByName("msr"), 0, scale));
  PrintCurve("twitter-like", GenerateDatasetTrace(DatasetByName("twitter"), 0, scale));

  std::printf("\npaper shape: every curve decreases with sequence length; higher skew\n"
              "lies lower; twitter-like lies far below msr-like at every length\n"
              "(paper: 26%% vs 75%% at the 10%% sequence length).\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
