#include "kvbench/cpp/span_log.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace kvbench {

SpanLog::SpanLog(uint32_t thread, size_t keep) : thread_(thread), keep_(keep) {
  kept_.reserve(keep_);
}

uint64_t SpanLog::Begin(const char* name, uint64_t trace_id) {
  Open o;
  o.span.name = name;
  o.span.span_id = (static_cast<uint64_t>(thread_) << 48) | next_id_++;
  o.span.parent_id = current();
  o.span.trace_id = trace_id;
  o.span.start_ns = NowNs();
  open_.push_back(o);
  return o.span.span_id;
}

void SpanLog::End() { EndAs(open_.back().span.name); }

void SpanLog::EndAs(const char* name) {
  Open o = open_.back();
  open_.pop_back();
  o.span.name = name;
  o.span.end_ns = NowNs();
  const int64_t dur = o.span.end_ns - o.span.start_ns;
  if (!open_.empty()) {
    open_.back().child_ns += dur;
  }
  Finish(o.span, dur - o.child_ns);
}

void SpanLog::Record(const char* name, uint64_t trace_id, uint64_t parent_id, int64_t start_ns,
                     int64_t end_ns) {
  Span s;
  s.name = name;
  s.span_id = (static_cast<uint64_t>(thread_) << 48) | next_id_++;
  s.parent_id = parent_id;
  s.trace_id = trace_id;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  Finish(s, end_ns - start_ns);
}

void SpanLog::Finish(const Span& span, int64_t self_ns) {
  SpanTotals* t = nullptr;
  for (SpanTotals& cand : totals_) {
    if (cand.name == span.name) {
      t = &cand;
      break;
    }
  }
  if (t == nullptr) {
    totals_.push_back({span.name, 0, 0, 0});
    t = &totals_.back();
  }
  ++t->count;
  t->total_ns += span.end_ns - span.start_ns;
  t->self_ns += self_ns;
  if (kept_.size() < keep_) {
    kept_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::vector<SpanTotals> MergeTotals(const std::vector<const SpanLog*>& logs) {
  std::vector<SpanTotals> out;
  for (const SpanLog* log : logs) {
    for (const SpanTotals& t : log->totals()) {
      SpanTotals* dst = nullptr;
      for (SpanTotals& cand : out) {
        if (std::strcmp(cand.name, t.name) == 0) {
          dst = &cand;
        }
      }
      if (dst == nullptr) {
        out.push_back({t.name, 0, 0, 0});
        dst = &out.back();
      }
      dst->count += t.count;
      dst->total_ns += t.total_ns;
      dst->self_ns += t.self_ns;
    }
  }
  return out;
}

int64_t TotalNs(const std::vector<SpanTotals>& totals, const char* name) {
  for (const SpanTotals& t : totals) {
    if (std::strcmp(t.name, name) == 0) {
      return t.total_ns;
    }
  }
  return 0;
}

uint64_t Count(const std::vector<SpanTotals>& totals, const char* name) {
  for (const SpanTotals& t : totals) {
    if (std::strcmp(t.name, name) == 0) {
      return t.count;
    }
  }
  return 0;
}

void PrintLayerTable(const std::vector<SpanTotals>& totals, double overhead_pct) {
  int64_t all_self = 0;
  std::map<std::string, int64_t> layer_self;
  std::fprintf(stderr, "\n%-28s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const SpanTotals& t : totals) {
    std::fprintf(stderr, "%-28s %10llu %12.2f %12.2f\n", t.name,
                 static_cast<unsigned long long>(t.count), t.total_ns / 1e6, t.self_ns / 1e6);
    const char* dot = std::strchr(t.name, '.');
    layer_self[dot == nullptr ? std::string(t.name) : std::string(t.name, dot)] += t.self_ns;
    all_self += t.self_ns;
  }
  std::fprintf(stderr, "\n%-12s %12s %8s\n", "layer", "self_ms", "share");
  for (const auto& [layer, ns] : layer_self) {
    std::fprintf(stderr, "%-12s %12.2f %7.1f%%\n", layer.c_str(), ns / 1e6,
                 all_self == 0 ? 0.0 : 100.0 * static_cast<double>(ns) / all_self);
  }
  std::fprintf(stderr, "tracing overhead vs the untraced halves of this run: %+.2f%% CPU-time throughput\n\n",
               overhead_pct);
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t dropped = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->kept()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"span\":%llu,\"parent\":%llu,\"trace\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.span_id),
                   static_cast<unsigned long long>(s.parent_id),
                   static_cast<unsigned long long>(s.trace_id), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    dropped += log->dropped();
  }
  std::fprintf(f, "{\"dropped_spans\":%llu}\n", static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace kvbench
