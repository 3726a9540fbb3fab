// Two concurrent LRU variants for the scalability study (paper §5.3):
//
//  * ConcurrentLruStrict — textbook LRU: one mutex guards the index and the
//    list; every hit takes the lock to promote. The paper's "(strict) LRU".
//    Kept unsharded on purpose as the strawman baseline.
//  * ConcurrentLruOptimized — the Cachelib-style optimized LRU, now sharded
//    with a lock-free read path: hits are a wait-free index probe plus one
//    relaxed per-entry access counter; promotion happens at most once per
//    refresh_ops accesses and only via try-lock (skipped under contention) —
//    Cachelib's lruRefreshTime / delayed-promotion tricks without the shared
//    global op counter the seed used.
#ifndef SRC_CONCURRENT_CONCURRENT_LRU_H_
#define SRC_CONCURRENT_CONCURRENT_LRU_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/concurrent/sharded_cache.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentLruStrict : public ConcurrentCache {
 public:
  explicit ConcurrentLruStrict(const ConcurrentCacheConfig& config);
  ~ConcurrentLruStrict() override;

  bool Get(uint64_t id) override;
  std::string Name() const override { return "lru-strict"; }
  uint64_t ApproxSize() const override;
  ConcurrentCacheStats Stats() const override;

 private:
  struct Entry {
    uint64_t id = 0;
    std::unique_ptr<char[]> value;
    ListHook hook;
  };

  const ConcurrentCacheConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> table_;
  IntrusiveList<Entry, &Entry::hook> list_;
  uint64_t hits_ = 0;    // guarded by mu_
  uint64_t misses_ = 0;  // guarded by mu_
};

class ConcurrentLruOptimized : public ConcurrentCache {
 public:
  explicit ConcurrentLruOptimized(const ConcurrentCacheConfig& config,
                                  uint64_t refresh_ops = 16);
  ~ConcurrentLruOptimized() override;

  bool Get(uint64_t id) override;
  std::string Name() const override { return "lru-optimized"; }
  uint64_t ApproxSize() const override;
  ConcurrentCacheStats Stats() const override;

 private:
  struct Entry {
    uint64_t id = 0;
    // Accesses since the last successful promotion; promotion is attempted
    // once this reaches refresh_ops_ (per-entry, no shared op counter).
    std::atomic<uint64_t> accesses{0};
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
    Queue list;  // guarded by `lock`; back = least recently used
    std::atomic<uint64_t> resident{0};  // list.size(), stored at each unlock
  };

  Shard& ShardFor(uint64_t id) { return *shards_[CacheShardFor(id, num_shards_)]; }
  // Under the shard lock: links `e`, then evicts from the back until the
  // list fits, unpublishing each victim.
  void LinkLocked(Shard& s, Entry* e, std::vector<Entry*>& victims);
  static void RetireEntry(Entry* e);

  const ConcurrentCacheConfig config_;
  const uint64_t refresh_ops_;
  unsigned num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_LRU_H_
