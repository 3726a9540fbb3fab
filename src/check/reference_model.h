// Reference oracles for differential testing (the harness's ground truth).
//
// Each oracle is a deliberately naive re-implementation of one eviction
// policy: plain std::vector queues scanned linearly, occupancy recomputed by
// summation on every step, no intrusive lists, no open addressing, no
// incremental counters. The point is to be *obviously* correct — close to a
// line-by-line transcription of the algorithm — so that when an optimized
// policy in src/policies/ diverges, the oracle is the side you trust.
//
// An oracle consumes the trace request-by-request and reports, per request,
// everything the differential driver compares: the hit/miss decision, the
// set of ids that left residency, and the occupied bytes afterwards.
//
// Covered policies (CreateReferenceModel / OracleCoveredPolicies):
//   fifo, lru, clock, sieve, 2q, s3fifo, s3fifo-d
//
// Scope: the oracles implement the policies' default queue disciplines (for
// s3fifo: FIFO S and M, exact ghost) plus the parameters the fuzzer varies
// (small_ratio, move_to_main_threshold, max_freq, ghost_ratio, bits,
// kin_ratio, kout_ratio, and the s3fifo-d adaptation knobs). The ablation
// variants (small_lru, main_sieve, ghost_type=table) are out of oracle scope
// and rejected with std::invalid_argument.
#ifndef SRC_CHECK_REFERENCE_MODEL_H_
#define SRC_CHECK_REFERENCE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cache.h"
#include "src/trace/request.h"

namespace s3fifo {
namespace check {

// Everything observable about one request, for comparison against the
// optimized implementation.
struct StepOutcome {
  bool hit = false;
  std::vector<uint64_t> evicted;  // ids that left residency, ascending
  uint64_t occupied = 0;          // units (objects or bytes) after the step
};

class ReferenceModel {
 public:
  explicit ReferenceModel(const CacheConfig& config);
  virtual ~ReferenceModel() = default;

  ReferenceModel(const ReferenceModel&) = delete;
  ReferenceModel& operator=(const ReferenceModel&) = delete;

  // Processes one request; mirrors Cache::Get's op dispatch.
  StepOutcome Step(const Request& req);

  virtual bool Contains(uint64_t id) const = 0;
  virtual std::string Name() const = 0;

  uint64_t capacity() const { return capacity_; }
  uint64_t clock() const { return clock_; }

 protected:
  // Returns hit; appends every id leaving residency (any order).
  virtual bool Access(const Request& req, std::vector<uint64_t>* evicted) = 0;
  // kDelete path. Appends the id if it was resident.
  virtual void Delete(uint64_t id, std::vector<uint64_t>* evicted) = 0;
  // Recomputed from scratch (summation), never tracked incrementally.
  virtual uint64_t Occupied() const = 0;

  uint64_t SizeOf(const Request& req) const { return count_based_ ? 1 : req.size; }
  bool count_based() const { return count_based_; }

 private:
  uint64_t capacity_;
  bool count_based_;
  uint64_t clock_ = 0;
};

// Naive exact ghost queue (ids only, oldest first, linear scans). Insert
// refreshes an existing id's position; overflow drops the oldest — the same
// contract as util/ghost_queue.h, minus all the lazy-expiry machinery.
class NaiveGhost {
 public:
  explicit NaiveGhost(uint64_t capacity) : capacity_(capacity) {}

  void Insert(uint64_t id);
  bool Contains(uint64_t id) const;
  void Remove(uint64_t id);
  // Shrinking drops the oldest ids.
  void set_capacity(uint64_t capacity);
  uint64_t size() const { return ids_.size(); }
  uint64_t capacity() const { return capacity_; }

 private:
  uint64_t capacity_;
  std::vector<uint64_t> ids_;  // oldest first
};

// Throws std::invalid_argument for a policy without an oracle or a config
// outside oracle scope.
std::unique_ptr<ReferenceModel> CreateReferenceModel(std::string_view name,
                                                     const CacheConfig& config);

// Canonical factory names of every oracle-covered policy.
const std::vector<std::string>& OracleCoveredPolicies();

}  // namespace check
}  // namespace s3fifo

#endif  // SRC_CHECK_REFERENCE_MODEL_H_
