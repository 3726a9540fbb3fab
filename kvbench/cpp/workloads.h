// The three workloads. Each builds its inputs from Options::seed, measures
// for Options::seconds, checks every output it reads, and reports the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// through Result.
#ifndef KVBENCH_CPP_WORKLOADS_H_
#define KVBENCH_CPP_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "kvbench/cpp/common.h"
#include "kvbench/cpp/span_log.h"

namespace kvbench {

// sim-kv: offline analysis of one KV trace — Simulate, MultiSimulate,
// OnePassMrc and a LogStructuredFlashCache pass. One thread.
Result RunSimKv(const Options& options);
// cache-churn: one thread driving ConcurrentS3Fifo directly (closed loop).
Result RunCacheChurn(const Options& options);
// serve-kv: a single-threaded poll client, 4 connections at depth 1,
// against an in-process CacheServer over loopback TCP.
Result RunServeKv(const Options& options);

// A run is split into this many rounds. Each round sets its workload up
// afresh — new inputs, new cache or server, so new memory — and measures for
// its share of the run; setup_s is the median of the rounds' setup times,
// and the other time metrics are medians over the windows of all rounds, so
// no single instance's memory placement decides a run's figures.
inline constexpr int kRounds = 5;

// Writes the untraced run's end-to-end metrics into `result` in the order
// of the benchmark's metric list: the median CPU-time rate and the medians
// of the windows' p50 and p90, the hit ratio, the median setup time and the
// peak resident memory.
void AddEndToEnd(const WindowRates& rates, const WindowQuantiles& quantiles, double hit_ratio,
                 const std::vector<double>& setup_s, Result* result);

// Adds, for a traced run, the per-layer self-time shares, the untraced
// phases' wall-clock throughput and the tracing overhead (the traced
// phases' CPU-time rate against the untraced phases') to `layer` and prints
// the table; writes the span dump.
void ReportTrace(const Options& options, const std::vector<const SpanLog*>& logs,
                 const WindowRates& untraced, const WindowRates& traced,
                 std::map<std::string, double>* layer);

// Writes the traced run's per-layer metrics into `result` in the order of
// the benchmark's metric list; layers a workload does not exercise read 0.
void AddLayerMetrics(const std::map<std::string, double>& layer, Result* result);

}  // namespace kvbench

#endif  // KVBENCH_CPP_WORKLOADS_H_
