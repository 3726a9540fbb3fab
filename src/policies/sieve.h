// SIEVE (Zhang et al., NSDI'24; paper §7): a FIFO queue with a moving "hand"
// and one visited bit. Unlike CLOCK, survivors stay in place (the hand moves
// instead of the object), giving lazy promotion with zero queue mutation on
// hit.
#ifndef SRC_POLICIES_SIEVE_H_
#define SRC_POLICIES_SIEVE_H_

#include "src/core/cache.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class SieveCache : public Cache {
 public:
  explicit SieveCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "sieve"; }
  void Prefetch(uint64_t id) const override { table_.Prefetch(id); }

 protected:
  bool Access(const Request& req) override;
  void AccessBatch(const TraceView& view, uint64_t begin, uint64_t end,
                   uint8_t* hits) override;

 private:
  friend class Cache;  // BatchLoop statically binds the protected Access
  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t hits = 0;
    bool visited = false;
    uint64_t insert_time = 0;
    uint64_t last_access_time = 0;
    ListHook hook;
  };

  void EvictOne();
  void RemoveEntry(Entry* entry, bool explicit_delete);

  FlatMap<Entry> table_;
  IntrusiveList<Entry, &Entry::hook> queue_;
  Entry* hand_ = nullptr;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_SIEVE_H_
