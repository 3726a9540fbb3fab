// Interface of the in-memory concurrent caches used by the throughput /
// scalability benchmark (paper §5.3, Fig. 8) and by the network front end
// (src/server/). Get() is an on-demand-fill read: a miss admits the object
// (generating a payload), like the Cachelib trace-replay setup the paper
// uses. GetBatch() is the software-pipelined entry point the replay loop and
// the server's per-connection batching both drive — the concurrent analogue
// of Cache::GetBatch on the simulator policies.
#ifndef SRC_CONCURRENT_CONCURRENT_CACHE_H_
#define SRC_CONCURRENT_CONCURRENT_CACHE_H_

#include <cstdint>
#include <string>

namespace s3fifo {

struct ConcurrentCacheConfig {
  uint64_t capacity_objects = 1 << 16;
  uint32_t value_size = 64;  // bytes materialised per on-demand-filled object
  // Sub-tables across all sub-caches' hash indexes (divided among the
  // sub-caches). Writers are serialized by their sub-cache's lock either
  // way; more sub-tables keep each occupancy-triggered rebuild, which runs
  // inside that lock, small. Reads are lock-free and unaffected.
  unsigned hash_shards = 64;
  // Sub-cache partitions: each owns an independent index, queues, ghost
  // state and lock. Clamped against capacity (PickCacheShards);
  // 1 reproduces the unsharded seed semantics exactly.
  unsigned cache_shards = 8;
};

// Cache-side request counters, aggregated from per-thread stripes at read
// time; approximate only while requests are in flight.
struct ConcurrentCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// Receives the resident value of each batched hit while the bytes are safe
// to read (the cache holds its internal read guard for the duration of the
// callback). `index` is the request's position within the batch.
class ValueSink {
 public:
  virtual ~ValueSink() = default;
  virtual void OnValue(uint32_t index, const char* data, uint32_t size) = 0;
};

class ConcurrentCache {
 public:
  virtual ~ConcurrentCache() = default;

  // Returns true on hit; a miss admits the object (on-demand fill).
  // Thread-safe.
  virtual bool Get(uint64_t id) = 0;

  // Processes `count` on-demand-fill gets, writing one byte per request into
  // `hits` (1 = hit). The contract is BIT-IDENTICAL outcomes to calling
  // Get() once per id, in order — batching only changes the instruction
  // schedule (index slots for upcoming ids are prefetched while the current
  // id is handled, and the read guard is pinned once per batch instead of
  // once per request). If `sink` is non-null, caches that store readable
  // values invoke it once per hit, in batch order; the default
  // implementation (payload caches without a value-aware override) never
  // invokes it. Thread-safe.
  virtual void GetBatch(const uint64_t* ids, uint32_t count, uint8_t* hits,
                        ValueSink* sink = nullptr) {
    (void)sink;
    for (uint32_t i = 0; i < count; ++i) {
      hits[i] = Get(ids[i]) ? 1 : 0;
    }
  }

  // Insert-or-replace with caller-provided bytes (the server's `set` verb).
  // Counts as a hit when the object was resident (in-place value swap) and
  // as a miss when it was admitted, mirroring the simulator's kSet
  // semantics. Returns false when the cache cannot store explicit values
  // (default). Thread-safe.
  virtual bool Set(uint64_t id, const char* data, uint32_t size) {
    (void)id;
    (void)data;
    (void)size;
    return false;
  }

  // Removes the object if resident (the server's `delete` verb). Returns
  // true if this call removed it; false if absent or unsupported (default).
  // Thread-safe.
  virtual bool Delete(uint64_t id) {
    (void)id;
    return false;
  }

  virtual std::string Name() const = 0;
  // Approximate resident object count (for tests).
  virtual uint64_t ApproxSize() const = 0;
  virtual ConcurrentCacheStats Stats() const { return {}; }
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_CONCURRENT_CACHE_H_
