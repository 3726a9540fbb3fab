// One-pass MRC engine speedup + error report (BENCH_mrc.json).
//
// For every policy the engine supports, computes the full miss-ratio curve
// twice on each trace — brute force (one simulation per grid size, the
// pre-engine default) and one-pass (a single traversal for the whole grid)
// — and reports the wall-clock speedup and the maximum absolute difference
// between the two curves. The engine is exact, so the error column must
// print 0; it is the acceptance gate for --mrc=onepass being the bench
// default, and the binary exits 1 when any row's per-size counts
// (requests, hits, misses, bytes) differ from brute force.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sweep.h"
#include "src/analysis/mrc_engine.h"
#include "src/trace/trace_view.h"
#include "src/workload/dataset_profiles.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// The fig06 size grid: a geometric sweep between the fig06 SweepCapacity
// anchors (1% and 10% of the trace footprint), i.e. the size range the
// paper's Fig. 6 percentile plots are measured over, at MRC resolution.
std::vector<uint64_t> GeometricGrid(uint64_t footprint) {
  const uint64_t lo = std::max<uint64_t>(SweepCapacity(footprint, false), 4);
  const uint64_t hi = std::max<uint64_t>(SweepCapacity(footprint, true), lo + 1);
  const int points = 32;
  std::vector<uint64_t> grid;
  const double ratio = std::pow(static_cast<double>(hi) / lo, 1.0 / (points - 1));
  double v = static_cast<double>(lo);
  for (int i = 0; i < points; ++i, v *= ratio) {
    const uint64_t size = std::max<uint64_t>(static_cast<uint64_t>(v), 1);
    if (grid.empty() || size != grid.back()) {
      grid.push_back(size);
    }
  }
  return grid;
}

struct NamedTrace {
  std::string name;
  Trace trace;
};

bool SameCounts(const SimResult& a, const SimResult& b) {
  return a.requests == b.requests && a.hits == b.hits && a.misses == b.misses &&
         a.bytes_requested == b.bytes_requested && a.bytes_missed == b.bytes_missed;
}

// Returns false when any row's counts differ from brute force.
bool Run() {
  PrintHeader("One-pass MRC engine: speedup and exactness vs brute force",
              "engine acceptance report (not a paper figure)");
  const double scale = BenchScale();

  std::vector<NamedTrace> traces;
  {
    ZipfWorkloadConfig zc;
    zc.num_objects = static_cast<uint64_t>(20000 * scale) + 1000;
    zc.num_requests = static_cast<uint64_t>(200000 * scale) + 10000;
    zc.alpha = 1.0;
    zc.write_fraction = 0.05;
    zc.delete_fraction = 0.01;
    zc.seed = 42;
    traces.push_back({"zipf1.0", GenerateZipfTrace(zc)});
  }
  for (const char* name : {"cdn1", "msr"}) {
    traces.push_back({name, GenerateDatasetTrace(DatasetByName(name), 0, scale * 0.25)});
  }

  const std::vector<std::string> policies = {"fifo", "clock", "sieve", "lru", "s3fifo",
                                             "s3fifo-d"};
  std::vector<JsonFields> json_rows;
  double min_speedup = 1e300;
  double max_speedup = 0.0;
  double log_speedup_sum = 0.0;
  int rows = 0;
  double max_abs_err_overall = 0.0;
  bool counts_match = true;

  std::printf("%-10s %-9s %5s %10s %10s %8s %12s\n", "trace", "policy", "sizes", "brute_ms",
              "onepass_ms", "speedup", "max_abs_err");
  for (const NamedTrace& nt : traces) {
    const TraceView view = TraceView::Borrow(nt.trace);
    const uint64_t footprint = view.stats().num_objects;
    const std::vector<uint64_t> grid = GeometricGrid(footprint);
    CacheConfig config;
    config.capacity = 1;
    config.count_based = true;

    for (const std::string& policy : policies) {
      // Best-of-N on both sides: wall-clock noise on shared machines runs
      // +-20%, and min-of-reps is the standard noise-robust estimator.
      constexpr int kReps = 3;
      std::vector<SimResult> brute;
      double brute_ms = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        const WallTimer brute_timer;
        std::vector<SimResult> r = ComputeMrcResults(view, policy, grid, config);
        brute_ms = std::min(brute_ms, brute_timer.ElapsedMs());
        if (rep == 0) {
          brute = std::move(r);
        }
      }

      MrcCurve onepass;
      double onepass_ms = 1e300;
      for (int rep = 0; rep < kReps; ++rep) {
        const WallTimer onepass_timer;
        MrcCurve c = OnePassMrc(view, policy, grid, config);
        onepass_ms = std::min(onepass_ms, onepass_timer.ElapsedMs());
        if (rep == 0) {
          onepass = std::move(c);
        }
      }

      double max_abs_err = 0.0;
      for (size_t i = 0; i < grid.size(); ++i) {
        max_abs_err = std::max(
            max_abs_err, std::fabs(onepass.results[i].MissRatio() - brute[i].MissRatio()));
        if (!SameCounts(onepass.results[i], brute[i])) {
          counts_match = false;
          std::fprintf(stderr, "MISMATCH %s %s size=%llu: onepass misses %llu, brute %llu\n",
                       nt.name.c_str(), policy.c_str(), static_cast<unsigned long long>(grid[i]),
                       static_cast<unsigned long long>(onepass.results[i].misses),
                       static_cast<unsigned long long>(brute[i].misses));
        }
      }
      const double speedup = brute_ms / std::max(onepass_ms, 1e-6);
      min_speedup = std::min(min_speedup, speedup);
      max_speedup = std::max(max_speedup, speedup);
      log_speedup_sum += std::log(speedup);
      ++rows;
      max_abs_err_overall = std::max(max_abs_err_overall, max_abs_err);
      std::printf("%-10s %-9s %5zu %10.1f %10.1f %7.1fx %12.3g\n", nt.name.c_str(),
                  policy.c_str(), grid.size(), brute_ms, onepass_ms, speedup, max_abs_err);
      json_rows.push_back(JsonFields()
                              .Add("trace", nt.name)
                              .Add("policy", policy)
                              .Add("mode", "onepass")
                              .Add("grid_points", static_cast<uint64_t>(grid.size()))
                              .Add("brute_ms", brute_ms)
                              .Add("onepass_ms", onepass_ms)
                              .Add("speedup", speedup)
                              .Add("max_abs_err", max_abs_err));
    }
  }

  const double geomean_speedup = std::exp(log_speedup_sum / std::max(rows, 1));
  std::printf(
      "\none-pass speedup on the fig06 size grid: %.1fx geometric mean "
      "(min %.1fx, max %.1fx); max |error| across rows: %g\n",
      geomean_speedup, min_speedup, max_speedup, max_abs_err_overall);
  WriteBenchJson("mrc",
                 JsonFields()
                     .Add("scale", scale)
                     .Add("speedup", geomean_speedup)
                     .Add("min_speedup", min_speedup)
                     .Add("max_speedup", max_speedup)
                     .Add("max_abs_err", max_abs_err_overall),
                 json_rows);
  return counts_match;
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  return s3fifo::Run() ? 0 : 1;
}
