// Concurrent CLOCK (the MemC3 / RocksDB HyperClockCache approach, paper
// §2.2/§7), sharded + lock-free read path: hits are a wait-free index probe
// plus one relaxed ref-bit store — no lock; a miss links, evicts and
// publishes in one critical section under the owning sub-cache's ShardLock.
#ifndef SRC_CONCURRENT_CONCURRENT_CLOCK_H_
#define SRC_CONCURRENT_CONCURRENT_CLOCK_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/concurrent/sharded_cache.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentClock : public ConcurrentCache {
 public:
  explicit ConcurrentClock(const ConcurrentCacheConfig& config);
  ~ConcurrentClock() override;

  bool Get(uint64_t id) override;
  std::string Name() const override { return "clock"; }
  uint64_t ApproxSize() const override;
  ConcurrentCacheStats Stats() const override;

 private:
  struct Entry {
    uint64_t id = 0;
    std::atomic<uint8_t> ref{0};
    std::unique_ptr<char[]> value;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  struct alignas(64) Shard {
    Shard(uint64_t capacity, unsigned index_shards)
        : capacity_objects(capacity), index(capacity, index_shards) {}

    const uint64_t capacity_objects;
    LockFreeHashMap<Entry*> index;  // written under `lock`, read lock-free
    ShardLock lock;
    Queue list;  // guarded by `lock`; FIFO order, back = oldest
    std::atomic<uint64_t> resident{0};  // list.size(), stored at each unlock
  };

  Shard& ShardFor(uint64_t id) { return *shards_[CacheShardFor(id, num_shards_)]; }
  // Under the shard lock: links `e`, then sweeps the hand until the list
  // fits, unpublishing each victim.
  void LinkLocked(Shard& s, Entry* e, std::vector<Entry*>& victims);
  static void RetireEntry(Entry* e);

  const ConcurrentCacheConfig config_;
  unsigned num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_CLOCK_H_
