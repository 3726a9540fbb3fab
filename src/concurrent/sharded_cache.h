// Building blocks for the sharded concurrent prototypes: every cache is
// hash-partitioned into independent sub-caches, each with its own index,
// queues, ghost state and one ShardLock. Hits read the index without
// locking; every miss-path write of a sub-cache (link, evict, index publish
// and unpublish) happens in one critical section under its ShardLock.
#ifndef SRC_CONCURRENT_SHARDED_CACHE_H_
#define SRC_CONCURRENT_SHARDED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/util/hash.h"

namespace s3fifo {

// How many sub-caches to create: the requested count, clamped so each shard
// keeps a meaningful population (tiny test caches degenerate to one shard,
// which preserves the seed's exact single-queue semantics). Power of two.
inline unsigned PickCacheShards(unsigned requested, uint64_t capacity_objects) {
  constexpr uint64_t kMinObjectsPerShard = 32;
  uint64_t limit = capacity_objects / kMinObjectsPerShard;
  unsigned shards = 1;
  while (shards * 2 <= requested && static_cast<uint64_t>(shards) * 2 <= limit) {
    shards <<= 1;
  }
  return shards;
}

// Sub-cache id for an object: high hash bits, independent from both the index
// probe position (low bits) and the index's internal shard pick (bits 48+).
inline unsigned CacheShardFor(uint64_t id, unsigned num_shards) {
  return static_cast<unsigned>((Mix64(id) >> 32) & (num_shards - 1));
}

// Spin hint for busy-wait loops: lets a hyperthread sibling run and keeps the
// spinning core from flooding the lock's cache line.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

// The per-sub-cache lock. Critical sections are a few list splices and index
// slot writes, so a waiter spins (test-and-test-and-set, with a pause) for a
// short while before yielding its core. Sits alone on its cache line so the
// waiters' reads never bounce the index or queue headers next to it.
// Satisfies Lockable: use it with std::lock_guard / std::unique_lock.
class alignas(64) ShardLock {
 public:
  void lock() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      for (unsigned spins = 0; locked_.load(std::memory_order_relaxed);) {
        if (++spins < kSpinsBeforeYield) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  bool try_lock() {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  static constexpr unsigned kSpinsBeforeYield = 128;
  std::atomic<bool> locked_{false};
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_SHARDED_CACHE_H_
