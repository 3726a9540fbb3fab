// Synthetic workload generation.
//
// The base process is the independent reference model (IRM) over a Zipf(α)
// popularity distribution — the model the paper uses for its synthetic
// analyses (§3.1, Fig. 2) and throughput benchmark (§5.3). On top of IRM the
// generator can mix in the trace features that shape real datasets:
//
//  * new-object arrivals — a stream of never-before-seen ids (CDN-style
//    one-hit wonders beyond what Zipf's tail provides);
//  * scans — runs of sequential ids touched once (block workloads);
//  * loops — repeated sequential sweeps over a region (block workloads);
//  * writes and deletes (KV workloads; deletes shortly after inserts,
//    matching the observation in §4.2);
//  * log-normal object sizes (for byte miss ratio and flash experiments).
#ifndef SRC_WORKLOAD_ZIPF_WORKLOAD_H_
#define SRC_WORKLOAD_ZIPF_WORKLOAD_H_

#include <cstdint>

#include "src/trace/trace.h"

namespace s3fifo {

struct ZipfWorkloadConfig {
  uint64_t num_objects = 100000;  // Zipf universe (popularity-ranked ids)
  uint64_t num_requests = 1000000;
  double alpha = 1.0;  // Zipf skew

  // Fraction of requests that address a brand-new object id.
  double new_object_fraction = 0.0;

  // Fraction of requests that belong to sequential scans of scan_length.
  double scan_fraction = 0.0;
  uint64_t scan_length = 1000;

  // Fraction of requests that belong to looping sweeps (re-scanning the same
  // region loop_repeats times).
  double loop_fraction = 0.0;
  uint64_t loop_length = 500;
  uint32_t loop_repeats = 4;

  // Temporal burstiness: with this probability a Zipf-drawn request is
  // re-emitted once more after a short random gap (1..burst_gap_max
  // requests). Production KV traces show strong short-range reuse that the
  // pure independent reference model lacks (§3.1's production-vs-Zipf gap);
  // bursts close it.
  double burst_fraction = 0.0;
  uint32_t burst_gap_max = 32;

  // Operation mix (applied to non-scan requests).
  double write_fraction = 0.0;
  double delete_fraction = 0.0;

  // Object sizes: log-normal(log(size_mean_bytes) - sigma^2/2, sigma), so the
  // mean is size_mean_bytes; sigma 0 = fixed size.
  uint32_t size_mean_bytes = 4096;
  double size_sigma = 0.0;
  uint32_t size_min_bytes = 64;
  uint32_t size_max_bytes = 4 << 20;

  uint64_t seed = 1;
  // Scrambles rank->id mapping so ids are not ordered by popularity.
  bool scramble_ids = true;
};

// Generates a trace according to the configuration. Deterministic in `seed`.
Trace GenerateZipfTrace(const ZipfWorkloadConfig& config);

}  // namespace s3fifo

#endif  // SRC_WORKLOAD_ZIPF_WORKLOAD_H_
