// An in-memory request trace plus its summary statistics.
#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/request.h"

namespace s3fifo {

struct TraceStats {
  uint64_t num_requests = 0;
  uint64_t num_objects = 0;  // distinct ids ("footprint" in objects)
  uint64_t total_bytes_requested = 0;
  uint64_t footprint_bytes = 0;  // sum of sizes over distinct ids (last size seen)
  uint64_t num_gets = 0;
  uint64_t num_sets = 0;
  uint64_t num_deletes = 0;
  // Fraction of distinct objects requested exactly once in the full trace.
  double one_hit_wonder_ratio = 0.0;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<Request> requests, std::string name = "");

  const std::vector<Request>& requests() const { return requests_; }
  size_t size() const { return requests_.size(); }
  bool empty() const { return requests_.empty(); }
  const Request& operator[](size_t i) const { return requests_[i]; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // The next-access column: entry i is the index of the next request to
  // requests()[i].id, or kNeverAccessed. Only an annotated trace carries it
  // (AnnotateNextAccess, or a v2 file written from an annotated trace);
  // otherwise it is empty. Belady and the demotion analysis read it.
  bool annotated() const { return annotated_; }
  const std::vector<uint64_t>& next_access() const { return next_access_; }
  // Installs the column; throws std::invalid_argument unless it holds one
  // entry per request.
  void set_next_access(std::vector<uint64_t> next_access);

  // Computes (and caches) full-trace statistics. O(n) on first call.
  const TraceStats& Stats() const;

  // Appends one request and drops the next-access column, which it makes
  // stale.
  void Append(const Request& req);

  // Order-sensitive 64-bit digest over (id, size, op) of every request.
  // Bit-identical across platforms for the same trace; the golden-trace
  // tests pin generator outputs with it, and the correctness harness uses it
  // to assert replay determinism.
  uint64_t Fingerprint() const;

 private:
  std::vector<Request> requests_;
  std::string name_;
  bool annotated_ = false;  // next_access_ is the column (empty trace included)
  std::vector<uint64_t> next_access_;
  mutable bool stats_valid_ = false;
  mutable TraceStats stats_;
};

}  // namespace s3fifo

#endif  // SRC_TRACE_TRACE_H_
