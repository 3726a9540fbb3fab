// Concurrent W-TinyLFU, modelled on the Cachelib implementation the paper
// benchmarks against (§5.3), now hash-partitioned into sub-caches: lookups
// are a wait-free probe of the shard's lock-free index, but hits must still
// take the shard's list lock to run the window/probation/protected
// promotions — the structural cost the paper calls out, now per-shard
// instead of global. The count-min sketch stays shared (relaxed atomic
// counters); the aging trigger is sampled so no per-access shared counter
// remains on the hot path.
#ifndef SRC_CONCURRENT_CONCURRENT_TINYLFU_H_
#define SRC_CONCURRENT_CONCURRENT_TINYLFU_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/concurrent/sharded_cache.h"
#include "src/concurrent/striped_counter.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ConcurrentTinyLfu : public ConcurrentCache {
 public:
  explicit ConcurrentTinyLfu(const ConcurrentCacheConfig& config, double window_ratio = 0.01);
  ~ConcurrentTinyLfu() override;

  bool Get(uint64_t id) override;
  std::string Name() const override { return "tinylfu"; }
  uint64_t ApproxSize() const override;
  ConcurrentCacheStats Stats() const override;

 private:
  enum class Where : uint8_t { kWindow, kProbation, kProtected };

  struct Entry {
    uint64_t id = 0;
    Where where = Where::kWindow;  // guarded by the shard lock
    std::unique_ptr<char[]> value;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  struct alignas(64) Shard {
    Shard(uint64_t window_capacity, uint64_t probation_capacity, uint64_t protected_capacity,
          uint64_t index_capacity, unsigned index_shards)
        : window_capacity(window_capacity),
          probation_capacity(probation_capacity),
          protected_capacity(protected_capacity),
          index(index_capacity, index_shards) {}

    const uint64_t window_capacity;
    const uint64_t probation_capacity;
    const uint64_t protected_capacity;
    LockFreeHashMap<Entry*> index;  // written under `lock`, read lock-free
    ShardLock lock;
    // Everything below is guarded by `lock`.
    Queue window, probation, protected_q;
    uint64_t window_count = 0, probation_count = 0, protected_count = 0;
    // Resident entries, stored at each unlock.
    std::atomic<uint64_t> resident{0};
  };

  Shard& ShardFor(uint64_t id) { return *shards_[CacheShardFor(id, num_shards_)]; }

  void SketchIncrement(uint64_t id);
  uint32_t SketchEstimate(uint64_t id) const;
  void PromoteLocked(Shard& s, Entry* e);
  // Under the shard lock: moves window overflow into the main segments,
  // unpublishing each entry the admission filter rejects.
  void HandleOverflowLocked(Shard& s, std::vector<Entry*>& victims);
  void EvictLocked(Shard& s, Entry* victim, std::vector<Entry*>& victims);
  static void RetireEntry(Entry* e);

  const ConcurrentCacheConfig config_;
  unsigned num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Plain atomic-counter count-min sketch (4 rows), shared by all shards so
  // frequency estimates see the full access stream.
  std::vector<std::atomic<uint32_t>> sketch_;
  uint64_t sketch_mask_;
  StripedCounter accesses_;
  std::atomic<uint64_t> next_age_at_;
  uint64_t sample_period_;

  StripedCounter hits_;
  StripedCounter misses_;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_TINYLFU_H_
