#include "src/sim/simulator.h"

#include "src/sim/multi_sim.h"

namespace s3fifo {

SimResult Simulate(const TraceView& view, Cache& cache, const SimOptions& options) {
  Cache* const caches[] = {&cache};
  return MultiSimulate(view, caches, options)[0];
}

SimResult Simulate(const Trace& trace, Cache& cache, const SimOptions& options) {
  return Simulate(TraceView::Borrow(trace), cache, options);
}

}  // namespace s3fifo
