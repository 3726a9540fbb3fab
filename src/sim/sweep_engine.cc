#include "src/sim/sweep_engine.h"

namespace s3fifo {

TraceView SharedTrace::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!view_.has_value()) {
    auto trace = std::make_shared<Trace>(generate_());
    trace->Stats();
    view_ = TraceView::FromTrace(std::move(trace));
  }
  return *view_;
}

void SharedTrace::AddUser() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_users_;
}

void SharedTrace::ReleaseUser() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_users_ <= 0) {
    view_.reset();
  }
}

std::vector<SweepUnitResult> SweepEngine::Run(const std::vector<SweepUnit>& units) {
  simulated_requests_ = 0;
  for (const SweepUnit& unit : units) {
    unit.trace->AddUser();
  }
  std::vector<SweepUnitResult> results(units.size());
  const std::vector<TaskOutcome> outcomes = RunTasks(
      units.size(),
      [this, &units, &results](size_t i) {
        const SweepUnit& unit = units[i];
        const TraceView view = unit.trace->Acquire();
        if (unit.run) {
          results[i].results = unit.run(view);
        } else {
          std::vector<std::unique_ptr<Cache>> caches = unit.make_caches(view);
          results[i].results = MultiSimulate(view, caches, unit.options);
        }
        // Σ trace length × result streams: for a one-pass unit this counts
        // the equivalent brute-force work the engine replaced, keeping
        // requests/sec comparable across modes.
        simulated_requests_ += view.size() * results[i].results.size();
        // Only a successful unit releases its claim; a permanently failing
        // one keeps the trace cached, which at worst delays the release
        // until the SharedTrace itself is destroyed.
        unit.trace->ReleaseUser();
      },
      options_);
  for (size_t i = 0; i < units.size(); ++i) {
    results[i].label = units[i].label;
    results[i].ok = outcomes[i].ok;
    results[i].attempts = outcomes[i].attempts;
    results[i].error = outcomes[i].error;
  }
  return results;
}

}  // namespace s3fifo
