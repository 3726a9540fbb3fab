// Concurrent open-addressing hash index with lock-free reads, the index
// behind every concurrent cache's Get-hit path. Layout follows
// src/util/flat_map.h (power-of-two slot array, linear probing, Mix64
// placement) adapted for concurrency:
//
//   * Readers never lock: a probe is a short walk over a contiguous slot
//     array using acquire loads. Publication order (key, then value with
//     release) makes a (key, value) pair read value-first consistent; a
//     reader can never observe key A paired with B's value.
//   * Writers (insert/erase — the miss/evict path only) must be serialized
//     by the caller; the concurrent caches hold their sub-cache's ShardLock.
//     The map stays split into independent sub-tables so that a rebuild,
//     which runs inside the caller's critical section, copies only one
//     small table.
//   * Erase leaves a tombstone (value = null, slot stays "used") so reader
//     probe chains are never broken mid-walk. Tombstones are purged by
//     rebuilding the shard's table when occupancy crosses 3/4; the old table
//     is retired through EBR so in-flight readers finish safely.
//
// V must be a pointer type. Values returned by Find() may be concurrently
// unpublished and retired: callers must hold an EbrDomain::Guard across
// Find() and every dereference of the result, and must retire (not delete)
// values after EraseIf.
#ifndef SRC_CONCURRENT_LOCKFREE_HASH_MAP_H_
#define SRC_CONCURRENT_LOCKFREE_HASH_MAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/concurrent/ebr.h"
#include "src/util/hash.h"

namespace s3fifo {

template <typename V>
class LockFreeHashMap {
  static_assert(std::is_pointer_v<V>, "LockFreeHashMap stores pointers");

 public:
  // `expected_entries` sizes each shard's table for ~1/2 load at the expected
  // population (rebuilds handle transient growth); `num_shards` sub-tables
  // (rounded up to a power of two) bound the size of one rebuild.
  explicit LockFreeHashMap(uint64_t expected_entries, unsigned num_shards = 8) {
    unsigned shards = 1;
    while (shards < num_shards) {
      shards <<= 1;
    }
    shard_mask_ = shards - 1;
    const uint64_t per_shard = expected_entries / shards + 1;
    uint64_t slots = kMinSlots;
    while (per_shard * 2 > slots) {
      slots <<= 1;
    }
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(slots));
    }
  }

  ~LockFreeHashMap() {
    for (auto& s : shards_) {
      delete s->table.load(std::memory_order_relaxed);
    }
  }

  LockFreeHashMap(const LockFreeHashMap&) = delete;
  LockFreeHashMap& operator=(const LockFreeHashMap&) = delete;

  // Lock-free. Returns the published value or nullptr. Caller must be pinned
  // (EbrDomain::Guard) and must stay pinned while using the result.
  V Find(uint64_t key) const {
    const Shard& s = ShardFor(key);
    const Table* t = s.table.load(std::memory_order_acquire);
    uint64_t pos = Mix64(key) & t->mask;
    for (uint64_t probes = 0; probes <= t->mask; ++probes) {
      const Slot& slot = t->slots[pos];
      if (slot.state.load(std::memory_order_acquire) == kNever) {
        return nullptr;
      }
      // Value before key: the writer publishes value last (release), so a
      // non-null value pins the matching key in place (acquire pairs them);
      // a mismatched key simply means the slot was reused — probe on.
      const V v = slot.value.load(std::memory_order_acquire);
      if (v != nullptr && slot.key.load(std::memory_order_relaxed) == key) {
        return v;
      }
      pos = (pos + 1) & t->mask;
    }
    return nullptr;
  }

  // Pulls the home slot of `key`'s probe chain toward the CPU cache — the
  // batched access paths call this a fixed distance ahead of the probe so
  // table misses overlap across a block. Pure hint: no observable effect.
  void Prefetch(uint64_t key) const {
    const Shard& s = ShardFor(key);
    const Table* t = s.table.load(std::memory_order_acquire);
    __builtin_prefetch(&t->slots[Mix64(key) & t->mask], 0, 1);
  }

  // Inserts only if no live entry for `key` exists. Returns true if this call
  // inserted. Writer: the caller serializes it with every other writer.
  bool InsertIfAbsent(uint64_t key, V value) {
    Shard& s = ShardFor(key);
    Table* t = s.table.load(std::memory_order_relaxed);
    if ((t->used + 1) * 4 > (t->mask + 1) * 3) {
      t = Rebuild(s, t);
    }
    uint64_t pos = Mix64(key) & t->mask;
    Slot* reuse = nullptr;
    while (true) {
      Slot& slot = t->slots[pos];
      if (slot.state.load(std::memory_order_relaxed) == kNever) {
        Slot* target = reuse != nullptr ? reuse : &slot;
        if (target == &slot) {
          ++t->used;
        }
        target->key.store(key, std::memory_order_relaxed);
        target->state.store(kUsed, std::memory_order_relaxed);
        target->value.store(value, std::memory_order_release);  // publish
        ++s.size;
        return true;
      }
      if (slot.value.load(std::memory_order_relaxed) != nullptr) {
        if (slot.key.load(std::memory_order_relaxed) == key) {
          return false;  // live entry already present
        }
      } else if (reuse == nullptr) {
        reuse = &slot;  // first tombstone on the probe path
      }
      pos = (pos + 1) & t->mask;
    }
  }

  // Unpublishes `key` only if pred(value) holds, so an evictor removes
  // exactly the entry it owns. Returns true if erased; the caller must then
  // retire the value via EBR. Writer: the caller serializes it.
  template <typename Pred>
  bool EraseIf(uint64_t key, Pred&& pred) {
    Shard& s = ShardFor(key);
    Table* t = s.table.load(std::memory_order_relaxed);
    uint64_t pos = Mix64(key) & t->mask;
    for (uint64_t probes = 0; probes <= t->mask; ++probes) {
      Slot& slot = t->slots[pos];
      if (slot.state.load(std::memory_order_relaxed) == kNever) {
        return false;
      }
      const V v = slot.value.load(std::memory_order_relaxed);
      if (v != nullptr && slot.key.load(std::memory_order_relaxed) == key) {
        if (!pred(v)) {
          return false;
        }
        slot.value.store(nullptr, std::memory_order_release);  // tombstone
        --s.size;
        return true;
      }
      pos = (pos + 1) & t->mask;
    }
    return false;
  }

  bool Erase(uint64_t key) {
    return EraseIf(key, [](V) { return true; });
  }

  // Exact count of live entries. Reads writer state: the caller serializes
  // it with the writers.
  size_t Size() const {
    size_t total = 0;
    for (const auto& s : shards_) {
      total += s->size;
    }
    return total;
  }

 private:
  static constexpr uint64_t kMinSlots = 16;
  static constexpr uint8_t kNever = 0;  // slot never claimed: probe stop
  static constexpr uint8_t kUsed = 1;   // claimed; tombstone iff value null

  struct Slot {
    std::atomic<uint64_t> key{0};
    std::atomic<V> value{nullptr};
    std::atomic<uint8_t> state{kNever};
  };

  struct Table {
    explicit Table(uint64_t n) : mask(n - 1), slots(n) {}
    const uint64_t mask;
    uint64_t used = 0;  // claimed slots (live + tombstones); writers only
    std::vector<Slot> slots;
  };

  struct alignas(64) Shard {
    explicit Shard(uint64_t slots) : table(new Table(slots)) {}
    std::atomic<Table*> table;
    uint64_t size = 0;  // live entries; writers only
  };

  // Shard selection uses the high hash bits; in-table probing uses the low
  // bits, so the two are independent.
  Shard& ShardFor(uint64_t key) { return *shards_[(Mix64(key) >> 48) & shard_mask_]; }
  const Shard& ShardFor(uint64_t key) const {
    return *shards_[(Mix64(key) >> 48) & shard_mask_];
  }

  // Copies live entries into a fresh table (purging tombstones; doubling if
  // legitimately full) and publishes it; the old table is EBR-retired so
  // concurrent readers mid-probe stay safe. Writer.
  Table* Rebuild(Shard& s, Table* old) {
    const uint64_t old_slots = old->mask + 1;
    const uint64_t new_slots = (s.size + 1) * 4 > old_slots * 2 ? old_slots * 2 : old_slots;
    Table* t = new Table(new_slots);
    for (uint64_t i = 0; i < old_slots; ++i) {
      const Slot& from = old->slots[i];
      if (from.state.load(std::memory_order_relaxed) == kNever) {
        continue;
      }
      const V v = from.value.load(std::memory_order_relaxed);
      if (v == nullptr) {
        continue;  // tombstone: dropped
      }
      const uint64_t key = from.key.load(std::memory_order_relaxed);
      uint64_t pos = Mix64(key) & t->mask;
      while (t->slots[pos].state.load(std::memory_order_relaxed) != kNever) {
        pos = (pos + 1) & t->mask;
      }
      Slot& to = t->slots[pos];
      to.key.store(key, std::memory_order_relaxed);
      to.state.store(kUsed, std::memory_order_relaxed);
      to.value.store(v, std::memory_order_relaxed);
      ++t->used;
    }
    s.table.store(t, std::memory_order_release);
    EbrDomain::Instance().Retire(old, [](void* p) { delete static_cast<Table*>(p); });
    return t;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t shard_mask_ = 0;
};

}  // namespace s3fifo

#endif  // SRC_CONCURRENT_LOCKFREE_HASH_MAP_H_
