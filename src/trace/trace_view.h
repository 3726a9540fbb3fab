// A cheap-to-copy, read-only handle on a heap Trace.
//
// The simulator layers take a TraceView instead of a Trace so that one
// trace can be shared by many concurrent consumers: a borrowed view leaves
// the trace's lifetime to the caller, and a FromTrace view shares ownership,
// so the trace lives as long as any copy of the view. The hot loops read the
// contiguous Request array through AsRequests().
#ifndef SRC_TRACE_TRACE_VIEW_H_
#define SRC_TRACE_TRACE_VIEW_H_

#include <memory>
#include <string>
#include <utility>

#include "src/trace/trace.h"

namespace s3fifo {

class TraceView {
 public:
  // An empty view; name() and stats() need a view of a trace.
  TraceView() = default;

  // Borrows `trace` without taking ownership; the caller guarantees the
  // trace outlives the view (the Simulate(const Trace&...) adapters).
  static TraceView Borrow(const Trace& trace) { return TraceView(&trace, nullptr); }

  // Shares ownership of a heap trace; the view keeps it alive.
  static TraceView FromTrace(std::shared_ptr<const Trace> trace) {
    const Trace* raw = trace.get();
    return TraceView(raw, std::move(trace));
  }

  size_t size() const { return trace_ == nullptr ? 0 : trace_->size(); }
  bool empty() const { return size() == 0; }
  bool annotated() const { return trace_ != nullptr && trace_->annotated(); }
  const std::string& name() const { return trace_->name(); }

  // Full-trace statistics, cached on the trace: O(n) only on the first call
  // (Trace::Stats()). Concurrent readers must warm the cache first.
  const TraceStats& stats() const { return trace_->Stats(); }

  // The trace's contiguous request array (size() entries).
  const Request* AsRequests() const {
    return trace_ == nullptr ? nullptr : trace_->requests().data();
  }

 private:
  TraceView(const Trace* trace, std::shared_ptr<const Trace> owner)
      : trace_(trace), owner_(std::move(owner)) {}

  const Trace* trace_ = nullptr;
  std::shared_ptr<const Trace> owner_;
};

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_VIEW_H_
