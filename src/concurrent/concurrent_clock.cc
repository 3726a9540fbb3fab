#include "src/concurrent/concurrent_clock.h"

#include <algorithm>
#include <mutex>

#include "src/concurrent/value_payload.h"

namespace s3fifo {

ConcurrentClock::ConcurrentClock(const ConcurrentCacheConfig& config)
    : config_(config),
      num_shards_(PickCacheShards(config.cache_shards, config.capacity_objects)) {
  const unsigned index_shards = std::max(1u, config.hash_shards / num_shards_);
  shards_.reserve(num_shards_);
  for (unsigned i = 0; i < num_shards_; ++i) {
    const uint64_t capacity = config.capacity_objects / num_shards_ +
                              (i < config.capacity_objects % num_shards_ ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(capacity, index_shards));
  }
}

ConcurrentClock::~ConcurrentClock() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<ShardLock> lock(s.lock);
    while (Entry* x = s.list.PopBack()) {
      delete x;
    }
  }
}

void ConcurrentClock::RetireEntry(Entry* e) {
  EbrDomain::Instance().Retire(e, [](void* p) { delete static_cast<Entry*>(p); });
}

bool ConcurrentClock::Get(uint64_t id) {
  Shard& s = ShardFor(id);
  EbrDomain::Guard guard;
  if (Entry* e = s.index.Find(id)) {
    // The whole hit path: one wait-free probe and one relaxed store.
    e->ref.store(1, std::memory_order_relaxed);
    (void)ReadValuePayload(e->value.get(), config_.value_size);
    hits_.Add(1);
    return true;
  }

  Entry* e = new Entry;
  e->id = id;
  e->value = MakeValuePayload(id, config_.value_size);
  misses_.Add(1);
  thread_local std::vector<Entry*> victims;
  {
    std::lock_guard<ShardLock> lock(s.lock);
    if (s.index.Find(id) == nullptr) {
      LinkLocked(s, e, victims);
      s.index.InsertIfAbsent(id, e);
      s.resident.store(s.list.size(), std::memory_order_relaxed);
      e = nullptr;
    }
  }
  delete e;  // non-null: another thread admitted this id first
  for (Entry* victim : victims) {
    RetireEntry(victim);
  }
  victims.clear();
  return false;
}

void ConcurrentClock::LinkLocked(Shard& s, Entry* e, std::vector<Entry*>& victims) {
  s.list.PushFront(e);
  while (s.list.size() > s.capacity_objects) {
    Entry* hand = s.list.Back();
    if (hand == e) {
      break;  // pathological capacity-1 shard
    }
    if (hand->ref.exchange(0, std::memory_order_relaxed) != 0) {
      s.list.MoveToFront(hand);  // second chance
      continue;
    }
    s.list.Remove(hand);
    s.index.Erase(hand->id);
    victims.push_back(hand);
  }
}

uint64_t ConcurrentClock::ApproxSize() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->resident.load(std::memory_order_relaxed);
  }
  return total;
}

ConcurrentCacheStats ConcurrentClock::Stats() const {
  return {static_cast<uint64_t>(hits_.Sum()), static_cast<uint64_t>(misses_.Sum())};
}

}  // namespace s3fifo
