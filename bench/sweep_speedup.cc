// End-to-end sweep speedup driver: runs the Fig. 7 policy sweep twice —
// once on the serial seed path (ForEachSweepCase + one Simulate per cache)
// and once on the sweep engine (shared traces, single-pass MultiSimulate,
// RunTasks fan-out) — verifies the miss-ratio outputs are bit-identical
// (hits/misses/bytes), and records speedup + throughput in BENCH_sweep.json.
//
// Usage: bench_sweep_speedup [--threads=N]   (N=8 is the acceptance setting;
// on hosts with fewer cores the parallel term shrinks accordingly and the
// remaining speedup comes from the shared-trace single-pass path.)
#include <cstdio>
#include <map>
#include <tuple>

#include "bench/bench_util.h"
#include "bench/sweep.h"
#include "src/sim/simulator.h"

namespace s3fifo {
namespace {

const std::vector<std::string>& SelectedPolicies() {
  static const std::vector<std::string>* p = new std::vector<std::string>{
      "s3fifo", "tinylfu", "lirs", "2q", "arc", "lru"};
  return *p;
}

// (dataset, trace_index, large, policy slot: 0=fifo, 1..=variants)
using CellKey = std::tuple<std::string, uint32_t, bool, size_t>;
using CellMap = std::map<CellKey, SimResult>;

bool SameResult(const SimResult& a, const SimResult& b) {
  return a.requests == b.requests && a.hits == b.hits && a.misses == b.misses &&
         a.bytes_requested == b.bytes_requested && a.bytes_missed == b.bytes_missed;
}

void Run(const BenchOptions& opts) {
  PrintHeader("Sweep speedup: serial seed path vs sweep engine", "§5.1.2 (evaluation harness)");
  const double scale = BenchScale() * 0.25;  // the Fig. 7 scale
  const std::vector<PolicyVariant> variants = VariantsFromPolicyNames(SelectedPolicies());

  // --- Serial seed path: regenerate each trace, one cache per pass. ---
  std::printf("\n[1/2] serial seed path...\n");
  CellMap serial;
  uint64_t serial_requests = 0;
  WallTimer serial_timer;
  ForEachSweepCase(scale, [&](const SweepCase& c) {
    for (const bool large : {true, false}) {
      CacheConfig config;
      config.capacity = large ? c.large_capacity : c.small_capacity;
      auto fifo = CreateCache("fifo", config);
      serial[{c.dataset->name, c.trace_index, large, 0}] = Simulate(c.trace, *fifo);
      serial_requests += c.trace.size();
      for (size_t vi = 0; vi < variants.size(); ++vi) {
        auto cache = CreateCache(variants[vi].policy, config);
        serial[{c.dataset->name, c.trace_index, large, vi + 1}] = Simulate(c.trace, *cache);
        serial_requests += c.trace.size();
      }
    }
  });
  const double serial_ms = serial_timer.ElapsedMs();

  // --- Sweep engine: shared traces, single pass, threaded fan-out. ---
  std::printf("[2/2] sweep engine...\n");
  CellMap engine;
  const SweepSummary summary = RunMissRatioSweep(
      scale, variants, /*include_small=*/true,
      [&](const SweepCell& c) {
        engine[{c.dataset->name, c.trace_index, c.large, 0}] = c.fifo;
        for (size_t vi = 0; vi < c.results.size(); ++vi) {
          engine[{c.dataset->name, c.trace_index, c.large, vi + 1}] = c.results[vi];
        }
      },
      opts.threads);

  // --- Equivalence: every cell bit-identical. ---
  size_t mismatches = 0;
  for (const auto& [key, result] : serial) {
    auto it = engine.find(key);
    if (it == engine.end() || !SameResult(result, it->second)) {
      ++mismatches;
    }
  }
  if (engine.size() != serial.size()) {
    mismatches += engine.size() > serial.size() ? engine.size() - serial.size()
                                                : serial.size() - engine.size();
  }
  const bool identical = mismatches == 0;

  const double speedup = summary.wall_ms > 0 ? serial_ms / summary.wall_ms : 0;
  const double serial_rps = serial_ms > 0 ? serial_requests / (serial_ms / 1000.0) : 0;
  std::printf("\nserial:  %8.0f ms  %7.2fM req/s  (%llu simulated requests)\n", serial_ms,
              serial_rps / 1e6, static_cast<unsigned long long>(serial_requests));
  std::printf("engine:  %8.0f ms  %7.2fM req/s  (%llu simulated requests, %u threads)\n",
              summary.wall_ms, summary.requests_per_sec / 1e6,
              static_cast<unsigned long long>(summary.simulated_requests), summary.threads);
  std::printf("speedup: %.2fx   miss-ratio output identical: %s (%zu mismatching cells)\n",
              speedup, identical ? "YES" : "NO", mismatches);

  WriteBenchJson("sweep",
                 JsonFields()
                     .Add("scale", scale)
                     .Add("threads", summary.threads)
                     .Add("serial_wall_ms", serial_ms)
                     .Add("engine_wall_ms", summary.wall_ms)
                     .Add("speedup", speedup)
                     .Add("serial_requests_per_sec", serial_rps)
                     .Add("engine_requests_per_sec", summary.requests_per_sec)
                     .Add("simulated_requests", summary.simulated_requests)
                     .Add("identical_output", identical),
                 {});
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::Run(s3fifo::ParseBenchArgs(argc, argv));
  return 0;
}
