// A cheap-to-copy, read-only handle on a Trace: one borrowed pointer.
//
// The simulator layers take a TraceView instead of a Trace so that one
// trace can be shared by many concurrent consumers; the caller keeps the
// trace alive for as long as any copy of the view. The hot loops read the
// contiguous Request array through AsRequests(), and Belady reads the
// next-access column of an annotated trace through NextAccess().
#ifndef SRC_TRACE_TRACE_VIEW_H_
#define SRC_TRACE_TRACE_VIEW_H_

#include <string>

#include "src/trace/trace.h"

namespace s3fifo {

class TraceView {
 public:
  // An empty view; name() and stats() need a view of a trace.
  TraceView() = default;

  // Borrows `trace` without taking ownership; the caller guarantees the
  // trace outlives the view (the Simulate(const Trace&...) adapters).
  static TraceView Borrow(const Trace& trace) { return TraceView(&trace); }

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

  // The trace's next-access column (size() entries; Trace::next_access()),
  // or nullptr when the trace is not annotated.
  const uint64_t* NextAccess() const {
    return annotated() ? trace_->next_access().data() : nullptr;
  }

 private:
  explicit TraceView(const Trace* trace) : trace_(trace) {}

  const Trace* trace_ = nullptr;
};

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_VIEW_H_
