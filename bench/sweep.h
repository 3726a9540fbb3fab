// The trace sweep behind the miss-ratio figures (Fig. 6, 7, 11, the
// ablations and §5.2.3).
//
// Cache sizes: the paper uses 10% ("large") and 0.1% ("small") of the trace
// footprint, skipping traces where the small cache would hold under 1000
// objects. Our scaled-down footprints are ~1000x smaller than production
// traces, so we use 10% and 1% — keeping the small cache's *absolute* object
// count in the same regime as the paper's 0.1% of a production footprint.
//
// One loop: ForEachTrace runs one task per dataset trace on a few worker
// threads — the in-process analog of the paper's distributed computation
// platform (§5.1.2). A task generates its trace, simulates everything it
// needs on it and returns its result; results come back in dataset/trace
// order whatever the thread count, and every task is deterministic, so the
// output is identical for any thread count.
#ifndef BENCH_SWEEP_H_
#define BENCH_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/sim/multi_sim.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {

inline uint64_t SweepCapacity(uint64_t footprint, bool large) {
  return std::max<uint64_t>(large ? footprint / 10 : footprint / 100, 10);
}

// One dataset trace, as a task of the per-trace loop sees it.
struct SweepTrace {
  const DatasetProfile* dataset;
  uint32_t index;
  Trace trace;
};

// Every (dataset, trace index) of the sweep, in profile-list order. The list
// ends with its smallest traces, so the tail of a parallel sweep stays short.
inline std::vector<std::pair<const DatasetProfile*, uint32_t>> SweepTraceList() {
  std::vector<std::pair<const DatasetProfile*, uint32_t>> list;
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    for (uint32_t i = 0; i < d.num_traces; ++i) {
      list.emplace_back(&d, i);
    }
  }
  return list;
}

// Worker threads for a sweep: `threads`, or hardware concurrency when 0,
// clamped to the number of traces.
inline unsigned SweepWorkers(unsigned threads) {
  const unsigned wanted =
      threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(std::min<size_t>(wanted, SweepTraceList().size()));
}

// Runs fn(const SweepTrace&) once per dataset trace on SweepWorkers(threads)
// threads, each claiming the next trace in profile-list order, and returns
// the results in that order. If tasks throw, the workers stop claiming new
// traces and the first failure in trace order is rethrown after the join,
// prefixed with the trace's label ("<dataset>/<index>: ...");
// std::invalid_argument keeps its type, anything else becomes
// std::runtime_error.
template <typename Fn>
auto ForEachTrace(double scale, unsigned threads, Fn&& fn) {
  using Result = decltype(fn(std::declval<const SweepTrace&>()));
  const auto list = SweepTraceList();
  std::vector<Result> results(list.size());
  std::vector<std::exception_ptr> errors(list.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t t = next++; t < list.size(); t = next++) {
      const auto [dataset, index] = list[t];
      const auto label = [&] { return dataset->name + "/" + std::to_string(index) + ": "; };
      try {
        results[t] = fn(SweepTrace{dataset, index, GenerateDatasetTrace(*dataset, index, scale)});
      } catch (const std::invalid_argument& e) {
        errors[t] = std::make_exception_ptr(std::invalid_argument(label() + e.what()));
      } catch (const std::exception& e) {
        errors[t] = std::make_exception_ptr(std::runtime_error(label() + e.what()));
      } catch (...) {
        errors[t] = std::make_exception_ptr(std::runtime_error(label() + "unknown exception"));
      }
      if (errors[t]) {
        next = list.size();
      }
    }
  };
  {
    // jthread joins on destruction, also when starting a later worker throws.
    std::vector<std::jthread> workers;
    for (unsigned w = 0; w < SweepWorkers(threads); ++w) {
      workers.emplace_back(work);
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return results;
}

// One policy configuration simulated against the FIFO baseline.
struct PolicyVariant {
  std::string label;   // row label in the figure
  std::string policy;  // factory name
  std::string params;  // CacheConfig::params
};

inline std::vector<PolicyVariant> VariantsFromPolicyNames(const std::vector<std::string>& names) {
  std::vector<PolicyVariant> variants;
  for (const std::string& name : names) {
    variants.push_back({name, name, ""});
  }
  return variants;
}

// Results for one (dataset trace, cache size) cell of the sweep.
struct SweepCell {
  const DatasetProfile* dataset = nullptr;
  uint32_t trace_index = 0;
  bool large = true;
  uint64_t capacity = 0;
  SimResult fifo;                  // the FIFO baseline at this capacity
  std::vector<SimResult> results;  // index-aligned with the variant list
};

struct SweepSummary {
  double wall_ms = 0;
  uint64_t simulated_requests = 0;  // Σ trace length × (1 + variants) × sizes
  double requests_per_sec = 0;
  unsigned threads = 0;
};

// Streams every dataset trace through FIFO + all variants, one ForEachTrace
// task per trace. `collect` runs on the calling thread after the sweep, once
// per (trace, size) cell, in deterministic dataset/trace/size order. Throws
// what ForEachTrace throws (e.g. std::invalid_argument for an unregistered
// policy), before any cell is collected.
//
// MRC mode (the bench binaries' --mrc= flag): under kAuto (the default),
// each policy the one-pass engine supports is computed for the trace's whole
// size grid in one traversal (OnePassMrc); everything else is streamed once
// per size through one MultiSimulate. Under kBrute every policy takes the
// MultiSimulate path. The two modes produce bit-identical cells — the
// one-pass engine is exact (tools/check_mrc_smoke.py asserts this on fig06
// in CI) — so kBrute is purely the escape hatch / reference timing.
inline SweepSummary RunMissRatioSweep(double scale, const std::vector<PolicyVariant>& variants,
                                      bool include_small,
                                      const std::function<void(const SweepCell&)>& collect,
                                      unsigned threads = 0, bool progress = true,
                                      MrcMode mrc_mode = MrcMode::kAuto) {
  const bool use_onepass = mrc_mode == MrcMode::kAuto;
  const std::vector<bool> size_flags =
      include_small ? std::vector<bool>{true, false} : std::vector<bool>{true};
  const auto onepass_supported = [use_onepass](const std::string& policy,
                                               const std::string& params) {
    CacheConfig config;  // the sweep simulates count-based caches
    config.params = params;
    return use_onepass && MrcEngineSupports(policy, config);
  };
  const bool fifo_onepass = onepass_supported("fifo", "");
  std::vector<size_t> onepass_vis, brute_vis;
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    (onepass_supported(variants[vi].policy, variants[vi].params) ? onepass_vis : brute_vis)
        .push_back(vi);
  }

  SweepSummary summary;
  summary.threads = SweepWorkers(threads);
  if (progress) {
    std::fprintf(stderr, "  [sweep] %zu traces (%zu policies, mrc=%s) on %u threads\n",
                 SweepTraceList().size(), variants.size() + 1, use_onepass ? "onepass" : "brute",
                 summary.threads);
  }
  // Σ trace length × result streams: a one-pass traversal counts the
  // brute-force work it replaced, keeping requests/sec comparable across
  // modes.
  std::atomic<uint64_t> simulated_requests{0};
  WallTimer timer;
  const std::vector<std::vector<SweepCell>> per_trace =
      ForEachTrace(scale, threads, [&](const SweepTrace& t) {
        const TraceView view = TraceView::Borrow(t.trace);
        std::vector<SweepCell> cells;
        std::vector<uint64_t> grid;
        for (const bool large : size_flags) {
          SweepCell cell;
          cell.dataset = t.dataset;
          cell.trace_index = t.index;
          cell.large = large;
          cell.capacity = SweepCapacity(view.stats().num_objects, large);
          cell.results.resize(variants.size());
          cells.push_back(std::move(cell));
          grid.push_back(cells.back().capacity);
        }
        // One-pass policies: one traversal each for the whole size grid,
        // all over one interning of the trace.
        std::vector<MrcPolicy> onepass_policies;
        if (fifo_onepass) {
          onepass_policies.push_back({"fifo"});
        }
        for (const size_t vi : onepass_vis) {
          MrcPolicy p{variants[vi].policy};
          p.config.params = variants[vi].params;
          onepass_policies.push_back(std::move(p));
        }
        const std::vector<MrcCurve> curves = OnePassMrc(view, onepass_policies, grid);
        auto curve = curves.begin();
        if (fifo_onepass) {
          for (size_t si = 0; si < cells.size(); ++si) {
            cells[si].fifo = curve->results[si];
          }
          ++curve;
        }
        for (const size_t vi : onepass_vis) {
          for (size_t si = 0; si < cells.size(); ++si) {
            cells[si].results[vi] = curve->results[si];
          }
          ++curve;
        }
        // The rest: per size, FIFO (when not one-pass) plus every other
        // variant streamed once through MultiSimulate.
        for (SweepCell& cell : cells) {
          CacheConfig config;
          config.capacity = cell.capacity;
          std::vector<std::unique_ptr<Cache>> caches;
          if (!fifo_onepass) {
            caches.push_back(CreateCache("fifo", config));
          }
          for (const size_t vi : brute_vis) {
            CacheConfig variant_config = config;
            variant_config.params = variants[vi].params;
            caches.push_back(CreateCache(variants[vi].policy, variant_config));
          }
          const std::vector<SimResult> r = MultiSimulate(view, caches);
          size_t slot = 0;
          if (!fifo_onepass) {
            cell.fifo = r[slot++];
          }
          for (const size_t vi : brute_vis) {
            cell.results[vi] = r[slot++];
          }
        }
        simulated_requests += view.size() * (variants.size() + 1) * cells.size();
        return cells;
      });
  summary.wall_ms = timer.ElapsedMs();

  summary.simulated_requests = simulated_requests;
  summary.requests_per_sec =
      summary.wall_ms > 0 ? summary.simulated_requests / (summary.wall_ms / 1000.0) : 0;

  for (const std::vector<SweepCell>& cells : per_trace) {
    for (const SweepCell& cell : cells) {
      collect(cell);
    }
  }
  return summary;
}

inline void PrintSweepSummary(const SweepSummary& s) {
  std::printf("\nsweep: %.0f ms wall, %llu simulated requests, %.2fM req/s, %u threads\n",
              s.wall_ms, static_cast<unsigned long long>(s.simulated_requests),
              s.requests_per_sec / 1e6, s.threads);
}

// Exit status of a bench body: 0, or 1 with "error: <what>" on stderr when
// it throws. The figure benches write their BENCH JSON last, so a failed
// sweep writes none.
template <typename Fn>
int RunBenchMain(Fn&& body) {
  try {
    body();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace s3fifo

#endif  // BENCH_SWEEP_H_
