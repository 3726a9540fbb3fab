// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public functions; nothing inside the library is instrumented. A
// span has a name "<layer>.<what>", a start and an end, a parent span and a
// trace id shared by every span of one batch or request. One SpanLog
// belongs to one thread. Nested spans (Begin/End) feed self time — a span's
// duration minus the part its children cover; spans of in-flight requests
// that overlap each other (Record) count their whole duration as self time.
// Every span feeds the per-name aggregates; the first `keep` spans are also
// kept verbatim and written out when the benchmark ends.
#ifndef KVBENCH_CPP_SPAN_LOG_H_
#define KVBENCH_CPP_SPAN_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kvbench/cpp/common.h"

namespace kvbench {

struct Span {
  const char* name = nullptr;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  const char* name = nullptr;
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread, size_t keep = 50000);

  // Opens a span nested in the innermost open one; returns its id.
  uint64_t Begin(const char* name, uint64_t trace_id);
  // Closes the innermost open span.
  void End();
  // Closes the innermost open span under another name (e.g. a sampled get
  // classified as hit or miss only once it returns).
  void EndAs(const char* name);
  // Records a finished span that was not nested on this thread's stack.
  void Record(const char* name, uint64_t trace_id, uint64_t parent_id, int64_t start_ns,
              int64_t end_ns);
  uint64_t current() const { return open_.empty() ? 0 : open_.back().span.span_id; }

  const std::vector<SpanTotals>& totals() const { return totals_; }
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Open {
    Span span;
    int64_t child_ns = 0;
  };
  void Finish(const Span& span, int64_t self_ns);

  uint32_t thread_;
  uint64_t next_id_ = 1;
  size_t keep_;
  std::vector<Open> open_;
  std::vector<SpanTotals> totals_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
};

// Opens a span on `log` for the scope; does nothing when `log` is null (the
// untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t trace_id) : log_(log) {
    if (log_ != nullptr) {
      log_->Begin(name, trace_id);
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

// Sums the aggregates of several logs by span name.
std::vector<SpanTotals> MergeTotals(const std::vector<const SpanLog*>& logs);
// Total span time under `name` (0 when no such span was recorded).
int64_t TotalNs(const std::vector<SpanTotals>& totals, const char* name);
uint64_t Count(const std::vector<SpanTotals>& totals, const char* name);

// Prints the per-span and per-layer self-time table to stderr.
void PrintLayerTable(const std::vector<SpanTotals>& totals, double overhead_pct);
// Writes every kept span as one JSON object per line; returns false on an
// I/O error.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace kvbench

#endif  // KVBENCH_CPP_SPAN_LOG_H_
