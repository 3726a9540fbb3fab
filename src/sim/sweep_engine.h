// The sweep engine: fans dataset × trace simulation units out over the
// fault-tolerant RunTasks thread pool, streaming each trace ONCE through all
// of its unit's caches (MultiSimulate) and generating each shared trace
// ONCE no matter how many units consume it.
//
// Determinism: every unit is an independent (trace, caches) simulation whose
// result depends only on its inputs, and results are collected index-aligned
// with the unit list — so the output is identical for any thread count,
// including the sequential num_threads=1 case.
//
// Memory: a SharedTrace generates its trace lazily on the first worker that
// needs it and drops it as soon as the last unit registered against it
// completes, so peak memory is bounded by the traces in flight, not the
// whole sweep.
#ifndef SRC_SIM_SWEEP_ENGINE_H_
#define SRC_SIM_SWEEP_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/multi_sim.h"
#include "src/sim/runner.h"

namespace s3fifo {

// A lazily generated, shareable trace. Acquire() runs the generator on
// first call (thread-safe; concurrent acquirers block on the same
// generation) and hands out views that share the one heap Trace. Its stats
// are computed before the trace is published, so concurrent stats() reads
// never race on the stats cache.
class SharedTrace {
 public:
  explicit SharedTrace(std::function<Trace()> generate) : generate_(std::move(generate)) {}

  TraceView Acquire();

 private:
  friend class SweepEngine;

  // Engine bookkeeping: one more / one less unit will Acquire this trace.
  // When the pending count returns to zero the cached view is released
  // (workers still holding a view copy keep the trace alive until they
  // finish).
  void AddUser();
  void ReleaseUser();

  std::mutex mu_;
  std::function<Trace()> generate_;
  std::optional<TraceView> view_;
  int pending_users_ = 0;
};

using SharedTracePtr = std::shared_ptr<SharedTrace>;

// One unit of sweep work: a trace streamed once through a set of caches.
// make_caches runs on the worker with the trace's view, so cache
// capacities can be derived from trace statistics (footprint fractions).
//
// Alternatively a unit may supply `run`, an arbitrary view -> results
// computation executed on the worker (the one-pass MRC engine path: one
// traversal producing the results for a whole capacity grid). When `run` is
// set it replaces the make_caches/MultiSimulate pipeline; options are the
// callback's own business.
struct SweepUnit {
  std::string label;
  SharedTracePtr trace;
  std::function<std::vector<std::unique_ptr<Cache>>(const TraceView&)> make_caches;
  std::function<std::vector<SimResult>(const TraceView&)> run;
  SimOptions options;
};

struct SweepUnitResult {
  std::string label;
  std::vector<SimResult> results;  // index-aligned with make_caches' vector
  bool ok = false;
  uint32_t attempts = 0;
  std::string error;
};

class SweepEngine {
 public:
  explicit SweepEngine(const RunnerOptions& options = {}) : options_(options) {}

  // A trace generated on the heap by the first unit that needs it.
  static SharedTracePtr MakeSharedTrace(std::function<Trace()> generate) {
    return std::make_shared<SharedTrace>(std::move(generate));
  }

  // Runs every unit; the result vector is index-aligned with `units`.
  std::vector<SweepUnitResult> Run(const std::vector<SweepUnit>& units);

  // Total requests streamed through caches in the last Run
  // (Σ trace.size() × caches per unit) — the numerator for requests/sec.
  uint64_t last_simulated_requests() const { return simulated_requests_.load(); }

 private:
  RunnerOptions options_;
  std::atomic<uint64_t> simulated_requests_{0};
};

}  // namespace s3fifo

#endif  // SRC_SIM_SWEEP_ENGINE_H_
