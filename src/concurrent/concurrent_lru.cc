#include "src/concurrent/concurrent_lru.h"

#include <algorithm>

#include "src/concurrent/value_payload.h"

namespace s3fifo {

ConcurrentLruStrict::ConcurrentLruStrict(const ConcurrentCacheConfig& config)
    : config_(config) {
  table_.reserve(config.capacity_objects * 2);
}

ConcurrentLruStrict::~ConcurrentLruStrict() = default;

bool ConcurrentLruStrict::Get(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(id);
  if (it != table_.end()) {
    list_.MoveToFront(&it->second);
    (void)ReadValuePayload(it->second.value.get(), config_.value_size);
    ++hits_;
    return true;
  }
  while (table_.size() >= config_.capacity_objects && !list_.empty()) {
    Entry* victim = list_.PopBack();
    table_.erase(victim->id);
  }
  Entry& e = table_[id];
  e.id = id;
  e.value = MakeValuePayload(id, config_.value_size);
  list_.PushFront(&e);
  ++misses_;
  return false;
}

uint64_t ConcurrentLruStrict::ApproxSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.size();
}

ConcurrentCacheStats ConcurrentLruStrict::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, misses_};
}

ConcurrentLruOptimized::ConcurrentLruOptimized(const ConcurrentCacheConfig& config,
                                               uint64_t refresh_ops)
    : config_(config),
      refresh_ops_(refresh_ops),
      num_shards_(PickCacheShards(config.cache_shards, config.capacity_objects)) {
  const unsigned index_shards = std::max(1u, config.hash_shards / num_shards_);
  shards_.reserve(num_shards_);
  for (unsigned i = 0; i < num_shards_; ++i) {
    const uint64_t capacity = config.capacity_objects / num_shards_ +
                              (i < config.capacity_objects % num_shards_ ? 1 : 0);
    shards_.push_back(std::make_unique<Shard>(capacity, index_shards));
  }
}

ConcurrentLruOptimized::~ConcurrentLruOptimized() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<ShardLock> lock(s.lock);
    while (Entry* x = s.list.PopBack()) {
      delete x;
    }
  }
}

void ConcurrentLruOptimized::RetireEntry(Entry* e) {
  EbrDomain::Instance().Retire(e, [](void* p) { delete static_cast<Entry*>(p); });
}

bool ConcurrentLruOptimized::Get(uint64_t id) {
  Shard& s = ShardFor(id);
  EbrDomain::Guard guard;
  if (Entry* e = s.index.Find(id)) {
    (void)ReadValuePayload(e->value.get(), config_.value_size);
    // Delayed promotion: at most once per refresh_ops_ accesses to this
    // entry, and only if the list lock is immediately available (try-lock
    // promotion — skipped outright under contention).
    if (e->accesses.fetch_add(1, std::memory_order_relaxed) + 1 >= refresh_ops_ &&
        s.lock.try_lock()) {
      if (e->hook.linked()) {  // not concurrently evicted
        s.list.MoveToFront(e);
        e->accesses.store(0, std::memory_order_relaxed);
      }
      s.lock.unlock();
    }
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

void ConcurrentLruOptimized::LinkLocked(Shard& s, Entry* e, std::vector<Entry*>& victims) {
  s.list.PushFront(e);
  while (s.list.size() > s.capacity_objects) {
    Entry* victim = s.list.Back();
    if (victim == e) {
      break;  // pathological capacity-1 shard
    }
    s.list.Remove(victim);
    s.index.Erase(victim->id);
    victims.push_back(victim);
  }
}

uint64_t ConcurrentLruOptimized::ApproxSize() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->resident.load(std::memory_order_relaxed);
  }
  return total;
}

ConcurrentCacheStats ConcurrentLruOptimized::Stats() const {
  return {static_cast<uint64_t>(hits_.Sum()), static_cast<uint64_t>(misses_.Sum())};
}

}  // namespace s3fifo
