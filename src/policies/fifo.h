// FIFO eviction: objects leave in insertion order; cache hits update no
// ordering state. The baseline of every figure in the paper.
#ifndef SRC_POLICIES_FIFO_H_
#define SRC_POLICIES_FIFO_H_

#include "src/core/cache.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class FifoCache : public Cache {
 public:
  explicit FifoCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "fifo"; }
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
    uint64_t insert_time = 0;
    uint64_t last_access_time = 0;
    ListHook hook;
  };

  void EvictOne();
  void RemoveEntry(Entry* entry, bool explicit_delete);

  FlatMap<Entry> table_;
  IntrusiveList<Entry, &Entry::hook> queue_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_FIFO_H_
