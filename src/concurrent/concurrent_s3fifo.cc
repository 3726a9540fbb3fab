#include "src/concurrent/concurrent_s3fifo.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>

#include <sanitizer/asan_interface.h>  // poisoning macros; no-ops without ASan

#include "src/concurrent/value_payload.h"

namespace s3fifo {

namespace {
// How far ahead of the current request GetBatch prefetches the index slot.
constexpr uint32_t kBatchPrefetch = 8;

// Per-thread free lists of entry blocks, one per 16-byte size class. EBR
// frees retired entries in batches (one per reclaim period), more blocks of
// one size than the allocator's per-thread cache keeps, so without this the
// miss path would round-trip through the allocator's shared arena. The
// deleter refills the pool of whichever thread reclaims; NewEntry draws from
// the calling thread's. Bounded, so a thread that only reclaims hands the
// overflow back to the heap. Pooled blocks are poisoned under ASan, so a
// stale reader is reported as a use-after-free just as with the heap.
class BlockPool {
 public:
  static constexpr size_t kAlign = 16;
  static constexpr size_t kClasses = 16;  // blocks of 16..256 bytes
  static constexpr uint32_t kMaxPerClass = 256;

  ~BlockPool() {
    for (size_t c = 0; c < kClasses; ++c) {
      while (heads_[c] != nullptr) {
        ::operator delete(Pop(c, (c + 1) * kAlign));
      }
    }
    destroyed = true;
  }

  // The calling thread's pool, or nullptr once it has been destroyed at
  // thread exit (later frees and allocations then go to the heap).
  static BlockPool* Local() {
    if (destroyed) {
      return nullptr;
    }
    thread_local BlockPool pool;
    return &pool;
  }

  static void* Take(size_t bytes) {
    const size_t c = bytes / kAlign - 1;
    BlockPool* pool = c < kClasses ? Local() : nullptr;
    if (pool != nullptr && pool->heads_[c] != nullptr) {
      return pool->Pop(c, bytes);
    }
    return ::operator new(bytes);
  }

  static void Give(void* block, size_t bytes) {
    const size_t c = bytes / kAlign - 1;
    BlockPool* pool = c < kClasses ? Local() : nullptr;
    if (pool == nullptr || pool->counts_[c] == kMaxPerClass) {
      ::operator delete(block);
      return;
    }
    auto* node = static_cast<Node*>(block);
    node->next = pool->heads_[c];
    pool->heads_[c] = node;
    ++pool->counts_[c];
    ASAN_POISON_MEMORY_REGION(block, bytes);
  }

 private:
  struct Node {
    Node* next;
  };

  void* Pop(size_t c, size_t bytes) {
    Node* node = heads_[c];
    ASAN_UNPOISON_MEMORY_REGION(node, sizeof(Node));
    heads_[c] = node->next;
    --counts_[c];
    ASAN_UNPOISON_MEMORY_REGION(node, bytes);
    return node;
  }

  static thread_local bool destroyed;
  Node* heads_[kClasses] = {};
  uint32_t counts_[kClasses] = {};
};

thread_local bool BlockPool::destroyed = false;

}  // namespace

ConcurrentS3Fifo::ValueBuf* ConcurrentS3Fifo::MakeBuf(const char* data, uint32_t size) {
  void* mem = ::operator new(offsetof(ValueBuf, data) + std::max<uint32_t>(size, 1));
  auto* buf = new (mem) ValueBuf;
  buf->size = size;
  if (size > 0) {
    std::memcpy(buf->data, data, size);
  }
  return buf;
}

void ConcurrentS3Fifo::FreeBuf(ValueBuf* buf) { ::operator delete(buf); }

size_t ConcurrentS3Fifo::BlockBytes(uint32_t size) {
  const size_t bytes = offsetof(Entry, inline_value) + offsetof(ValueBuf, data) +
                       std::max<uint32_t>(size, 1);
  return (bytes + BlockPool::kAlign - 1) / BlockPool::kAlign * BlockPool::kAlign;
}

ConcurrentS3Fifo::Entry* ConcurrentS3Fifo::NewEntry(uint64_t id, const char* data,
                                                    uint32_t size) {
  auto* e = new (BlockPool::Take(BlockBytes(size))) Entry;
  e->id = id;
  e->inline_value.size = size;
  if (data != nullptr) {
    std::memcpy(e->inline_value.data, data, size);
  } else {
    std::memset(e->inline_value.data, static_cast<int>(id & 0xFF), size);
  }
  e->value.store(&e->inline_value, std::memory_order_relaxed);
  return e;
}

void ConcurrentS3Fifo::FreeEntry(Entry* e) {
  ValueBuf* v = e->value.load(std::memory_order_relaxed);
  if (v != &e->inline_value) {
    FreeBuf(v);
  }
  const size_t bytes = BlockBytes(e->inline_value.size);
  e->~Entry();
  BlockPool::Give(e, bytes);
}

void ConcurrentS3Fifo::RetireEntry(Entry* e) {
  EbrDomain::Instance().Retire(e, [](void* p) { FreeEntry(static_cast<Entry*>(p)); });
}

ConcurrentS3Fifo::ConcurrentS3Fifo(const ConcurrentCacheConfig& config, double small_ratio,
                                   uint32_t move_threshold, uint32_t max_freq)
    : config_(config),
      move_threshold_(move_threshold),
      max_freq_(max_freq),
      num_shards_(PickCacheShards(config.cache_shards, config.capacity_objects)) {
  if (config.capacity_objects == 0) {
    throw std::invalid_argument("ConcurrentCacheConfig.capacity_objects must be > 0");
  }
  const unsigned index_shards = std::max(1u, config.hash_shards / num_shards_);
  shards_.reserve(num_shards_);
  for (unsigned i = 0; i < num_shards_; ++i) {
    const uint64_t capacity = config.capacity_objects / num_shards_ +
                              (i < config.capacity_objects % num_shards_ ? 1 : 0);
    const uint64_t small_target = std::max<uint64_t>(
        static_cast<uint64_t>(capacity * small_ratio), 1);
    shards_.push_back(std::make_unique<Shard>(capacity, small_target, index_shards));
  }
}

ConcurrentS3Fifo::~ConcurrentS3Fifo() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<ShardLock> lock(s.lock);
    while (Entry* x = s.small.PopBack()) {
      FreeEntry(x);
    }
    while (Entry* x = s.main.PopBack()) {
      FreeEntry(x);
    }
  }
}

bool ConcurrentS3Fifo::AccessPinned(uint64_t id, const char* set_data, uint32_t set_size,
                                    uint32_t batch_index, ValueSink* sink) {
  Shard& s = ShardFor(id);
  Entry* e = s.index.Find(id);
  if (e == nullptr) {
    Admit(s, id, set_data, set_size);
    return false;
  }
  // Lock-free hit path: capped increment; popular objects (freq already at
  // the cap) need no store at all (§4.3.1).
  uint8_t f = e->freq.load(std::memory_order_relaxed);
  while (f < max_freq_ &&
         !e->freq.compare_exchange_weak(f, f + 1, std::memory_order_relaxed)) {
  }
  if (set_data != nullptr) {
    // In-place value replacement: publish the new buffer, retire the old
    // one so concurrent readers mid-copy stay safe. The inline first value
    // lives and dies with its entry.
    ValueBuf* old = e->value.exchange(MakeBuf(set_data, set_size), std::memory_order_acq_rel);
    if (old != &e->inline_value) {
      EbrDomain::Instance().Retire(old, [](void* p) { FreeBuf(static_cast<ValueBuf*>(p)); });
    }
  } else {
    const ValueBuf* v = e->value.load(std::memory_order_acquire);
    if (sink != nullptr) {
      sink->OnValue(batch_index, v->data, v->size);
    } else {
      (void)ReadValuePayload(v->data, v->size);
    }
  }
  return true;
}

// The whole miss path in one critical section. Making room before the ghost
// check and link keeps the Algorithm-1 transition order (evict, then
// ghost-check, then insert) of the unsharded seed, so at cache_shards=1 the
// decision sequence is identical to the seed implementation's.
void ConcurrentS3Fifo::Admit(Shard& s, uint64_t id, const char* set_data, uint32_t set_size) {
  Entry* e = NewEntry(id, set_data, set_data != nullptr ? set_size : config_.value_size);
  thread_local std::vector<Entry*> victims;
  {
    std::lock_guard<ShardLock> lock(s.lock);
    if (s.index.Find(id) == nullptr) {
      while (s.small.size() + s.main.size() >= s.capacity_objects) {
        if ((s.small.size() > s.small_target && !s.small.empty()) || s.main.empty()) {
          EvictFromSmall(s, victims);
        } else {
          EvictFromMain(s, victims);
        }
        if (s.small.empty() && s.main.empty()) {
          break;
        }
      }
      if (s.ghost.Contains(id)) {
        s.ghost.Remove(id);
        e->in_small = false;
        s.main.PushFront(e);
      } else {
        s.small.PushFront(e);
      }
      s.index.InsertIfAbsent(id, e);
      s.resident.store(s.small.size() + s.main.size(), std::memory_order_relaxed);
      e = nullptr;
    }
  }
  if (e != nullptr) {
    FreeEntry(e);  // another thread admitted this id first; never published
  }
  for (Entry* victim : victims) {
    RetireEntry(victim);
  }
  victims.clear();
}

bool ConcurrentS3Fifo::Get(uint64_t id) {
  EbrDomain::Guard guard;
  const bool hit = AccessPinned(id, nullptr, 0, 0, nullptr);
  (hit ? hits_ : misses_).Add(1);
  return hit;
}

void ConcurrentS3Fifo::GetBatch(const uint64_t* ids, uint32_t count, uint8_t* hits,
                                ValueSink* sink) {
  EbrDomain::Guard guard;
  uint32_t hit_count = 0;
  for (uint32_t i = 0; i < count; ++i) {
    if (i + kBatchPrefetch < count) {
      const uint64_t ahead = ids[i + kBatchPrefetch];
      ShardFor(ahead).index.Prefetch(ahead);
    }
    const bool hit = AccessPinned(ids[i], nullptr, 0, i, sink);
    hits[i] = hit ? 1 : 0;
    hit_count += hit ? 1 : 0;
  }
  hits_.Add(hit_count);
  misses_.Add(count - hit_count);
}

bool ConcurrentS3Fifo::Set(uint64_t id, const char* data, uint32_t size) {
  static constexpr char kEmpty = '\0';
  EbrDomain::Guard guard;
  const bool hit =
      AccessPinned(id, data != nullptr ? data : &kEmpty, data != nullptr ? size : 0, 0, nullptr);
  (hit ? hits_ : misses_).Add(1);
  return true;
}

bool ConcurrentS3Fifo::Delete(uint64_t id) {
  Shard& s = ShardFor(id);
  Entry* e = nullptr;
  {
    // No EBR pin needed: under the lock no writer can retire the index table
    // or unlink the entry this thread finds.
    std::lock_guard<ShardLock> lock(s.lock);
    e = s.index.Find(id);
    if (e == nullptr) {
      return false;
    }
    s.index.Erase(id);
    (e->in_small ? s.small : s.main).Remove(e);
    s.resident.store(s.small.size() + s.main.size(), std::memory_order_relaxed);
  }
  RetireEntry(e);
  return true;
}

void ConcurrentS3Fifo::EvictFromSmall(Shard& s, std::vector<Entry*>& victims) {
  Entry* t = s.small.Back();
  if (t == nullptr) {
    return;
  }
  s.small.Remove(t);
  if (t->freq.load(std::memory_order_relaxed) >= move_threshold_) {
    t->in_small = false;
    t->freq.store(0, std::memory_order_relaxed);
    s.main.PushFront(t);
    while (s.main.size() > s.capacity_objects - s.small_target) {
      EvictFromMain(s, victims);
      if (s.main.empty()) {
        break;
      }
    }
  } else {
    s.ghost.Insert(t->id);
    s.index.Erase(t->id);
    victims.push_back(t);
  }
}

void ConcurrentS3Fifo::EvictFromMain(Shard& s, std::vector<Entry*>& victims) {
  while (Entry* t = s.main.Back()) {
    const uint8_t f = t->freq.load(std::memory_order_relaxed);
    if (f > 0) {
      t->freq.store(f - 1, std::memory_order_relaxed);
      s.main.MoveToFront(t);
    } else {
      s.main.Remove(t);
      s.index.Erase(t->id);
      victims.push_back(t);
      return;
    }
  }
}

uint64_t ConcurrentS3Fifo::ApproxSize() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->resident.load(std::memory_order_relaxed);
  }
  return total;
}

ConcurrentCacheStats ConcurrentS3Fifo::Stats() const {
  return {static_cast<uint64_t>(hits_.Sum()), static_cast<uint64_t>(misses_.Sum())};
}

}  // namespace s3fifo
