// Synthetic stand-ins for the paper's 14 trace datasets (Table 1).
//
// Each profile is a workload-generator template whose knobs (Zipf skew,
// request/object ratio, scan/loop mix, new-object arrival rate, op mix,
// object sizes) are tuned so the distributional properties that drive the
// paper's conclusions — in particular the one-hit-wonder ratio of the full
// trace and of 10%/1% sub-sequences — land in the same regime as Table 1.
// Per-dataset trace instances differ by seed and mild parameter jitter, like
// per-tenant traces split from a shared cluster.
#ifndef SRC_WORKLOAD_DATASET_PROFILES_H_
#define SRC_WORKLOAD_DATASET_PROFILES_H_

#include <string>
#include <vector>

#include "src/workload/zipf_workload.h"

namespace s3fifo {

struct DatasetProfile {
  std::string name;        // e.g. "msr", "twitter"
  std::string cache_type;  // "block" | "kv" | "object"
  ZipfWorkloadConfig base;
  uint32_t num_traces = 4;  // instances per dataset at scale 1
};

// The 14 dataset profiles in Table 1 order.
const std::vector<DatasetProfile>& AllDatasetProfiles();

// Looks up a profile by name; throws std::out_of_range if unknown.
const DatasetProfile& DatasetByName(const std::string& name);

// Generates the trace_index-th instance of a dataset. `scale` multiplies the
// trace length and footprint (sub-1.0 values give quick smoke runs).
Trace GenerateDatasetTrace(const DatasetProfile& profile, uint32_t trace_index,
                           double scale = 1.0);

}  // namespace s3fifo

#endif  // SRC_WORKLOAD_DATASET_PROFILES_H_
