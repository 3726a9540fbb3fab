#include "src/workload/scan_workload.h"

namespace s3fifo {

Trace GenerateSequentialScan(uint64_t num_objects) {
  std::vector<Request> reqs;
  reqs.reserve(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    reqs.push_back({.id = i});
  }
  return Trace(std::move(reqs), "sequential_scan");
}

Trace GenerateLoop(uint64_t region, uint64_t num_requests) {
  std::vector<Request> reqs;
  reqs.reserve(num_requests);
  for (uint64_t i = 0; i < num_requests; ++i) {
    reqs.push_back({.id = region == 0 ? 0 : i % region});
  }
  return Trace(std::move(reqs), "loop");
}

Trace GenerateTwoHitPattern(uint64_t num_objects, uint64_t reuse_distance) {
  // Emit object i at position p(i), and again reuse_distance slots later, by
  // interleaving: i, i+1, ..., i+D-1, i, i+D, i+1, ... A simple construction:
  // maintain a sliding window of D outstanding first-accesses.
  std::vector<Request> reqs;
  reqs.reserve(2 * num_objects);
  auto emit = [&](uint64_t id) { reqs.push_back({.id = id}); };
  for (uint64_t i = 0; i < num_objects; ++i) {
    emit(i);
    if (i >= reuse_distance) {
      emit(i - reuse_distance);  // second (and last) access
    }
  }
  for (uint64_t i = num_objects >= reuse_distance ? num_objects - reuse_distance : 0;
       i < num_objects; ++i) {
    emit(i);
  }
  return Trace(std::move(reqs), "two_hit");
}

}  // namespace s3fifo
