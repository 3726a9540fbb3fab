// Belady / OPT / MIN: the offline-optimal policy that evicts the resident
// object whose next request is farthest in the future. Requires the trace to
// be annotated with next-access indices (AnnotateNextAccess); the simulator
// enforces this via RequiresNextAccess(). GetBatch reads each request's next
// access from the view's next-access column; a scalar Get has none to read
// and treats its request as never reused.
//
// Used by the paper for the frequency-at-eviction analysis (Fig. 4) and as
// the efficiency upper bound in tests.
#ifndef SRC_POLICIES_BELADY_H_
#define SRC_POLICIES_BELADY_H_

#include <set>
#include <unordered_map>

#include "src/core/cache.h"

namespace s3fifo {

class BeladyCache : public Cache {
 public:
  explicit BeladyCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "belady"; }
  bool RequiresNextAccess() const override { return true; }

 private:
  struct Entry {
    uint64_t size = 1;
    uint32_t hits = 0;
    uint64_t insert_time = 0;
    uint64_t last_access_time = 0;
    uint64_t next_access = kNeverAccessed;
  };
  // (next_access, id): rbegin() = farthest-future victim.
  using VictimKey = std::pair<uint64_t, uint64_t>;

  bool Access(const Request& req) override;
  void AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) override;
  // The access path, given the index of the next request to req.id.
  bool AccessAt(const Request& req, uint64_t next_access);
  void EvictFarthest();
  void RemoveById(uint64_t id, bool explicit_delete);

  bool bypass_never_ = false;  // param bypass_never: skip admission of
                               // never-reused objects (Belady with admission)
  std::unordered_map<uint64_t, Entry> table_;
  std::set<VictimKey> order_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_BELADY_H_
