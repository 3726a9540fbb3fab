// Loopback load generator for the cache server (src/server/cache_server.h).
//
// Replays a src/workload/ trace (get/set/delete requests) over TCP in the
// memcached text protocol, with configurable connection count and pipelining
// depth, and records a log-bucketed latency histogram (src/sim/metrics.h).
//
// Two driving modes:
//
//  * closed loop — every connection keeps `pipeline_depth` requests in
//    flight; a completion immediately triggers the next send. Measures the
//    server's capacity; latency is request service time under saturation.
//
//  * open loop — requests are issued on a fixed-rate schedule
//    (`target_rate` ops/s spread across the connections) regardless of
//    completions, and each latency sample is measured from the request's
//    INTENDED send time, not the actual one. A stalled server therefore
//    penalizes every request behind the stall — the standard fix for
//    coordinated omission, where closed-loop measurement silently stops
//    sampling exactly when the server is slow.
#ifndef SRC_SERVER_LOADGEN_H_
#define SRC_SERVER_LOADGEN_H_

#include <cstdint>
#include <string>

#include "src/sim/metrics.h"
#include "src/trace/trace.h"

namespace s3fifo {

struct LoadGenConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  unsigned threads = 1;      // client event-loop threads
  unsigned connections = 8;  // total TCP connections, spread across threads
  // Closed loop: requests kept in flight per connection (RunLoadGen fails
  // a closed loop with 0).
  unsigned pipeline_depth = 8;
  // > 0 switches to open loop at this many ops/second (all connections
  // combined); pipeline_depth then only caps the per-connection burst drained
  // from the schedule in one poll iteration.
  double target_rate = 0.0;
  // Closed loop stops after the trace is exhausted or `max_ops` requests,
  // whichever is first; open loop additionally stops at `duration_s`.
  uint64_t max_ops = 0;  // 0 = trace length
  double duration_s = 0.0;
  // Value bytes attached to replayed kSet requests (capped by the protocol's
  // kMaxValueBytes).
  uint32_t set_value_bytes = 64;
};

struct LoadGenResult {
  uint64_t ops = 0;          // responses received
  uint64_t get_hits = 0;     // VALUE blocks seen
  uint64_t gets = 0;         // get responses (END-terminated)
  double seconds = 0.0;      // wall time of the measurement
  double achieved_rate = 0;  // ops / seconds
  LatencyHistogram latency;  // nanoseconds per request
  bool ok = false;
  std::string error;
};

// Connects, replays `trace` (each connection walks a disjoint stride), and
// blocks until every issued request has a response. The server must already
// be listening.
LoadGenResult RunLoadGen(const LoadGenConfig& config, const Trace& trace);

}  // namespace s3fifo

#endif  // SRC_SERVER_LOADGEN_H_
