// Concurrent S3-FIFO (paper §5.3), sharded + lock-free read path:
//
//  * Hits touch no lock at all: a wait-free probe of the LockFreeHashMap
//    index plus one capped relaxed frequency increment (for already-hot
//    objects not even a store) — entry lifetime is protected by EBR, not by
//    a shard mutex as in the seed implementation.
//  * Misses touch only per-shard state: the cache is hash-partitioned into
//    independent sub-caches, each with its own small/main queues, ghost
//    fingerprint table and one ShardLock. A miss builds its entry outside
//    the lock, then takes the lock once and, in one critical section,
//    re-checks the index, evicts to make room (unpublishing each victim from
//    the index), checks the ghost, links the entry and publishes it. Victims
//    are EBR-retired after the unlock.
//  * An entry and its first value share one block, recycled through a
//    bounded per-thread pool that EBR refills; admission allocates nothing
//    from the heap in steady state.
//
// Because skewed workloads are hit-dominated, this removes every shared
// cache line from the critical path — the scalability argument of the paper,
// now actually realized instead of bottlenecked on a global evict_mu_.
#ifndef SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
#define SRC_CONCURRENT_CONCURRENT_S3FIFO_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/concurrent/sharded_cache.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/ghost_table.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentS3Fifo : public ConcurrentCache {
 public:
  // Throws std::invalid_argument when config.capacity_objects is 0.
  explicit ConcurrentS3Fifo(const ConcurrentCacheConfig& config, double small_ratio = 0.1,
                            uint32_t move_threshold = 2, uint32_t max_freq = 3);
  ~ConcurrentS3Fifo() override;

  bool Get(uint64_t id) override;
  // Software-pipelined batch: one EBR pin for the whole block, index slots
  // prefetched kBatchPrefetch ids ahead; outcome bit-identical to Get() per
  // id. Hits report their value bytes through `sink` (server data path).
  void GetBatch(const uint64_t* ids, uint32_t count, uint8_t* hits,
                ValueSink* sink = nullptr) override;
  // Insert-or-replace with explicit bytes. A resident object's value is
  // swapped via an atomic pointer exchange (old heap buffer EBR-retired so
  // lock-free readers finish safely); a miss admits through the normal
  // S3-FIFO miss path carrying the provided bytes inline.
  bool Set(uint64_t id, const char* data, uint32_t size) override;
  // Finds, unpublishes and unlinks under the shard lock, then EBR-retires
  // the entry. No ghost insertion — matches the simulator's explicit-delete
  // semantics.
  bool Delete(uint64_t id) override;
  std::string Name() const override { return "s3fifo"; }
  uint64_t ApproxSize() const override;
  ConcurrentCacheStats Stats() const override;

 private:
  // A value: inline in its entry's block (the first value) or a heap block
  // swapped in by a `set` on the resident entry. Entries point at it through
  // an atomic so a `set` can republish without disturbing concurrent
  // lock-free readers (the old heap block is EBR-retired).
  struct ValueBuf {
    uint32_t size = 0;
    char data[1];  // over-allocated to `size` bytes
  };
  static ValueBuf* MakeBuf(const char* data, uint32_t size);
  static void FreeBuf(ValueBuf* buf);

  struct Entry {
    uint64_t id = 0;
    std::atomic<uint8_t> freq{0};
    bool in_small = true;  // guarded by the shard lock
    ListHook hook;         // guarded by the shard lock; linked <=> published
    std::atomic<ValueBuf*> value{nullptr};
    ValueBuf inline_value;  // last member: the block is over-allocated for it
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  // Bytes of an entry block whose inline value holds `size` bytes.
  static size_t BlockBytes(uint32_t size);
  // `data` null fills `size` bytes of the id's low byte (on-demand fill).
  static Entry* NewEntry(uint64_t id, const char* data, uint32_t size);
  static void FreeEntry(Entry* e);
  static void RetireEntry(Entry* e);

  struct alignas(64) Shard {
    Shard(uint64_t capacity, uint64_t small_target, unsigned index_shards)
        : capacity_objects(capacity),
          small_target(small_target),
          index(capacity, index_shards),
          ghost(std::max<uint64_t>(capacity - small_target, 1)) {}

    const uint64_t capacity_objects;
    const uint64_t small_target;
    LockFreeHashMap<Entry*> index;  // written under `lock`, read lock-free
    ShardLock lock;
    // Everything below is guarded by `lock`.
    Queue small, main;
    GhostTable ghost;
    // small.size() + main.size(), stored at each unlock for ApproxSize.
    std::atomic<uint64_t> resident{0};
  };

  Shard& ShardFor(uint64_t id) { return *shards_[CacheShardFor(id, num_shards_)]; }

  // One request, caller already pinned (EBR guard held). `set_data` non-null
  // makes it a `set` (value stored/replaced); null is an on-demand-fill get.
  // Returns whether it hit; the caller counts it.
  bool AccessPinned(uint64_t id, const char* set_data, uint32_t set_size, uint32_t batch_index,
                    ValueSink* sink);
  // The miss path: one critical section under the shard lock.
  void Admit(Shard& s, uint64_t id, const char* set_data, uint32_t set_size);

  // Both run under the shard lock; each victim is unpublished from the index
  // and collected for EBR retirement after the unlock.
  void EvictFromSmall(Shard& s, std::vector<Entry*>& victims);
  void EvictFromMain(Shard& s, std::vector<Entry*>& victims);

  const ConcurrentCacheConfig config_;
  const uint32_t move_threshold_;
  const uint32_t max_freq_;
  unsigned num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
