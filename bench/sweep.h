// Shared trace-sweep drivers for the miss-ratio figures (Fig. 6, 7, 11 and
// the ablations).
//
// Cache sizes: the paper uses 10% ("large") and 0.1% ("small") of the trace
// footprint, skipping traces where the small cache would hold under 1000
// objects. Our scaled-down footprints are ~1000x smaller than production
// traces, so we use 10% and 1% — keeping the small cache's *absolute* object
// count in the same regime as the paper's 0.1% of a production footprint.
//
// Two drivers:
//   * ForEachSweepCase — the original serial path: generates each trace and
//     hands it to the caller, which simulates one cache per pass. Kept as
//     the baseline the sweep-speedup bench measures against.
//   * RunMissRatioSweep — the sweep-engine path: every (trace, cache-size)
//     pair becomes one SweepUnit that streams the trace once through FIFO
//     plus all requested policy variants (MultiSimulate), units fan out over
//     the RunTasks thread pool, and each trace is generated once and shared.
//     Results are collected in deterministic case order regardless of the
//     thread count, and are bit-identical to the serial path.
#ifndef BENCH_SWEEP_H_
#define BENCH_SWEEP_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/sim/sweep_engine.h"
#include "src/workload/dataset_profiles.h"

namespace s3fifo {

struct SweepCase {
  const DatasetProfile* dataset;
  uint32_t trace_index;
  Trace trace;
  uint64_t large_capacity;  // 10% of footprint
  uint64_t small_capacity;  // 1% of footprint
};

inline uint64_t SweepCapacity(uint64_t footprint, bool large) {
  return std::max<uint64_t>(large ? footprint / 10 : footprint / 100, 10);
}

inline void ForEachSweepCase(double scale, const std::function<void(const SweepCase&)>& fn,
                             bool progress = true) {
  for (const DatasetProfile& d : AllDatasetProfiles()) {
    for (uint32_t i = 0; i < d.num_traces; ++i) {
      SweepCase c{&d, i, GenerateDatasetTrace(d, i, scale), 0, 0};
      const uint64_t footprint = c.trace.Stats().num_objects;
      c.large_capacity = SweepCapacity(footprint, true);
      c.small_capacity = SweepCapacity(footprint, false);
      fn(c);
    }
    if (progress) {
      std::fprintf(stderr, "  [sweep] %s done\n", d.name.c_str());
    }
  }
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
  uint64_t simulated_requests = 0;  // Σ trace length × caches per unit
  double requests_per_sec = 0;
  unsigned threads = 0;
  bool ok = true;  // false if any unit failed after retries
};

// Streams every dataset trace through FIFO + all variants on the sweep
// engine. `collect` runs on the calling thread after the sweep, once per
// (trace, size) cell, in deterministic dataset/trace/size order.
//
// MRC mode (the bench binaries' --mrc= flag): under kAuto (the default),
// each policy the one-pass engine supports becomes ONE unit per trace that
// computes the whole capacity grid in a single traversal (OnePassMrc);
// everything else keeps the per-size MultiSimulate units. Under kBrute every
// policy takes the per-size path. The two modes produce bit-identical cells
// — the one-pass engine is exact (tools/check_mrc_smoke.py asserts this on
// fig06 in CI) — so kBrute is purely the escape hatch / reference timing.
// kShards is approximate and throws std::invalid_argument.
inline SweepSummary RunMissRatioSweep(double scale, const std::vector<PolicyVariant>& variants,
                                      bool include_small,
                                      const std::function<void(const SweepCell&)>& collect,
                                      unsigned threads = 0, bool progress = true,
                                      MrcMode mrc_mode = MrcMode::kAuto) {
  if (mrc_mode == MrcMode::kShards) {
    throw std::invalid_argument("RunMissRatioSweep: the sweep has no SHARDS mode");
  }
  const bool use_onepass = mrc_mode != MrcMode::kBrute;
  const std::vector<bool> size_flags =
      include_small ? std::vector<bool>{true, false} : std::vector<bool>{true};

  const auto onepass_supported = [use_onepass](const std::string& policy,
                                               const std::string& params) {
    if (!use_onepass) {
      return false;
    }
    CacheConfig config;  // the sweep simulates count-based caches
    config.params = params;
    return MrcEngineSupports(policy, config);
  };
  const bool fifo_onepass = onepass_supported("fifo", "");
  std::vector<char> variant_onepass(variants.size(), 0);
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    variant_onepass[vi] = onepass_supported(variants[vi].policy, variants[vi].params) ? 1 : 0;
  }

  // Where each cell's per-policy results live after the run.
  struct Source {
    size_t unit = static_cast<size_t>(-1);
    size_t slot = 0;
  };
  struct CellMeta {
    const DatasetProfile* dataset;
    uint32_t trace_index;
    bool large;
    Source fifo;
    std::vector<Source> variant;  // index-aligned with `variants`
  };
  std::vector<SweepUnit> units;
  std::vector<CellMeta> cells;
  // Capacities are derived from trace stats on the workers; index-aligned
  // with `cells`, each slot written by exactly one designated unit (the
  // one-pass FIFO unit, or the brute unit carrying FIFO).
  auto capacities = std::make_shared<std::vector<uint64_t>>();

  for (const DatasetProfile& d : AllDatasetProfiles()) {
    for (uint32_t i = 0; i < d.num_traces; ++i) {
      // `d` lives in the static profile list, so the generator may hold it.
      SharedTracePtr shared = SweepEngine::MakeSharedTrace(
          [&d, i, scale] { return GenerateDatasetTrace(d, i, scale); });
      const size_t base_cell = cells.size();
      for (const bool large : size_flags) {
        CellMeta meta{&d, i, large, {}, {}};
        meta.variant.resize(variants.size());
        cells.push_back(std::move(meta));
      }
      const std::string trace_label = d.name + "/" + std::to_string(i);

      // One-pass units: one traversal per supported policy covering every
      // cell size of this trace.
      const auto add_onepass_unit = [&](const std::string& label, const std::string& policy,
                                        const std::string& params, bool record_capacities) {
        SweepUnit unit;
        unit.label = trace_label + "/" + label + "/mrc";
        unit.trace = shared;
        unit.run = [policy, params, size_flags, record_capacities, base_cell,
                    capacities](const TraceView& view) {
          std::vector<uint64_t> grid;
          grid.reserve(size_flags.size());
          for (const bool large : size_flags) {
            grid.push_back(SweepCapacity(view.stats().num_objects, large));
          }
          if (record_capacities) {
            for (size_t si = 0; si < grid.size(); ++si) {
              (*capacities)[base_cell + si] = grid[si];
            }
          }
          CacheConfig config;
          config.params = params;
          return OnePassMrc(view, policy, grid, config).results;
        };
        units.push_back(std::move(unit));
        return units.size() - 1;
      };

      if (fifo_onepass) {
        const size_t u = add_onepass_unit("fifo", "fifo", "", /*record_capacities=*/true);
        for (size_t si = 0; si < size_flags.size(); ++si) {
          cells[base_cell + si].fifo = {u, si};
        }
      }
      for (size_t vi = 0; vi < variants.size(); ++vi) {
        if (!variant_onepass[vi]) {
          continue;
        }
        const size_t u = add_onepass_unit(variants[vi].label, variants[vi].policy,
                                          variants[vi].params, /*record_capacities=*/false);
        for (size_t si = 0; si < size_flags.size(); ++si) {
          cells[base_cell + si].variant[vi] = {u, si};
        }
      }

      // Brute units: per (trace, size), carrying FIFO (when not one-pass)
      // plus every unsupported variant, streamed once through MultiSimulate.
      std::vector<size_t> brute_vis;
      for (size_t vi = 0; vi < variants.size(); ++vi) {
        if (!variant_onepass[vi]) {
          brute_vis.push_back(vi);
        }
      }
      const bool need_fifo = !fifo_onepass;
      if (need_fifo || !brute_vis.empty()) {
        for (size_t si = 0; si < size_flags.size(); ++si) {
          const bool large = size_flags[si];
          const size_t cell_index = base_cell + si;
          SweepUnit unit;
          unit.label = trace_label + (large ? "/large" : "/small");
          unit.trace = shared;
          unit.make_caches = [&variants, brute_vis, large, need_fifo, cell_index,
                              capacities](const TraceView& trace) {
            const uint64_t capacity = SweepCapacity(trace.stats().num_objects, large);
            if (need_fifo) {
              (*capacities)[cell_index] = capacity;
            }
            CacheConfig config;
            config.capacity = capacity;
            std::vector<std::unique_ptr<Cache>> caches;
            caches.reserve(brute_vis.size() + (need_fifo ? 1 : 0));
            if (need_fifo) {
              caches.push_back(CreateCache("fifo", config));
            }
            for (const size_t vi : brute_vis) {
              CacheConfig variant_config = config;
              variant_config.params = variants[vi].params;
              caches.push_back(CreateCache(variants[vi].policy, variant_config));
            }
            return caches;
          };
          const size_t u = units.size();
          size_t slot = 0;
          if (need_fifo) {
            cells[cell_index].fifo = {u, slot++};
          }
          for (const size_t vi : brute_vis) {
            cells[cell_index].variant[vi] = {u, slot++};
          }
          units.push_back(std::move(unit));
        }
      }
    }
  }
  capacities->resize(cells.size(), 0);

  RunnerOptions runner_options;
  runner_options.num_threads = threads;
  SweepEngine engine(runner_options);
  SweepSummary summary;
  summary.threads = threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  if (progress) {
    std::fprintf(stderr, "  [sweep] %zu units (%zu policies, mrc=%s) on %u threads\n",
                 units.size(), variants.size() + 1, use_onepass ? "onepass" : "brute",
                 summary.threads);
  }
  WallTimer timer;
  const std::vector<SweepUnitResult> results = engine.Run(units);
  summary.wall_ms = timer.ElapsedMs();
  summary.simulated_requests = engine.last_simulated_requests();
  summary.requests_per_sec =
      summary.wall_ms > 0 ? summary.simulated_requests / (summary.wall_ms / 1000.0) : 0;

  for (const SweepUnitResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "  [sweep] unit %s FAILED after %u attempts: %s\n", r.label.c_str(),
                   r.attempts, r.error.c_str());
      summary.ok = false;
    }
  }
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    const CellMeta& meta = cells[ci];
    const auto source_ok = [&results](const Source& s) {
      return s.unit != static_cast<size_t>(-1) && results[s.unit].ok;
    };
    bool cell_ok = source_ok(meta.fifo);
    for (const Source& s : meta.variant) {
      cell_ok = cell_ok && source_ok(s);
    }
    if (!cell_ok) {
      continue;  // summary.ok is already false via the unit loop above
    }
    SweepCell cell;
    cell.dataset = meta.dataset;
    cell.trace_index = meta.trace_index;
    cell.large = meta.large;
    cell.capacity = (*capacities)[ci];
    cell.fifo = results[meta.fifo.unit].results[meta.fifo.slot];
    cell.results.reserve(variants.size());
    for (const Source& s : meta.variant) {
      cell.results.push_back(results[s.unit].results[s.slot]);
    }
    collect(cell);
  }
  return summary;
}

inline void PrintSweepSummary(const SweepSummary& s) {
  std::printf("\nsweep: %.0f ms wall, %llu simulated requests, %.2fM req/s, %u threads%s\n",
              s.wall_ms, static_cast<unsigned long long>(s.simulated_requests),
              s.requests_per_sec / 1e6, s.threads, s.ok ? "" : "  [UNITS FAILED]");
}

}  // namespace s3fifo

#endif  // BENCH_SWEEP_H_
