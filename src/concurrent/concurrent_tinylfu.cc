#include "src/concurrent/concurrent_tinylfu.h"

#include <algorithm>
#include <mutex>

#include "src/concurrent/value_payload.h"
#include "src/util/hash.h"

namespace s3fifo {
namespace {

constexpr uint64_t kRowSeeds[4] = {0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL,
                                   0x165667b19e3779f9ULL, 0xd6e8feb86659fd93ULL};

uint64_t NextPow2(uint64_t x) {
  uint64_t p = 1;
  while (p < x) {
    p <<= 1;
  }
  return p;
}

}  // namespace

ConcurrentTinyLfu::ConcurrentTinyLfu(const ConcurrentCacheConfig& config, double window_ratio)
    : config_(config),
      num_shards_(PickCacheShards(config.cache_shards, config.capacity_objects)),
      sketch_(NextPow2(std::max<uint64_t>(config.capacity_objects * 4, 64)) * 4) {
  sketch_mask_ = sketch_.size() / 4 - 1;
  sample_period_ = std::max<uint64_t>(config.capacity_objects * 10, 64);
  next_age_at_.store(sample_period_, std::memory_order_relaxed);

  const unsigned index_shards = std::max(1u, config.hash_shards / num_shards_);
  shards_.reserve(num_shards_);
  for (unsigned i = 0; i < num_shards_; ++i) {
    const uint64_t capacity = config.capacity_objects / num_shards_ +
                              (i < config.capacity_objects % num_shards_ ? 1 : 0);
    const uint64_t window_capacity = std::max<uint64_t>(
        static_cast<uint64_t>(capacity * window_ratio), 1);
    const uint64_t main_capacity = std::max<uint64_t>(capacity - window_capacity, 2);
    const uint64_t probation_capacity = std::max<uint64_t>(main_capacity / 5, 1);
    const uint64_t protected_capacity =
        std::max<uint64_t>(main_capacity - probation_capacity, 1);
    shards_.push_back(std::make_unique<Shard>(window_capacity, probation_capacity,
                                              protected_capacity, capacity, index_shards));
  }
}

ConcurrentTinyLfu::~ConcurrentTinyLfu() {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<ShardLock> lock(s.lock);
    for (Queue* q : {&s.window, &s.probation, &s.protected_q}) {
      while (Entry* x = q->PopBack()) {
        delete x;
      }
    }
  }
}

void ConcurrentTinyLfu::RetireEntry(Entry* e) {
  EbrDomain::Instance().Retire(e, [](void* p) { delete static_cast<Entry*>(p); });
}

void ConcurrentTinyLfu::SketchIncrement(uint64_t id) {
  for (int row = 0; row < 4; ++row) {
    auto& counter = sketch_[static_cast<uint64_t>(row) * (sketch_mask_ + 1) +
                            (Mix64(id ^ kRowSeeds[row]) & sketch_mask_)];
    uint32_t v = counter.load(std::memory_order_relaxed);
    if (v < 0xFFFFFFFFu) {
      counter.fetch_add(1, std::memory_order_relaxed);
    }
  }
  accesses_.Add(1);
  // Sampled aging check: only every 64th local access reads the striped sum,
  // and a CAS elects the single thread that halves the sketch. No per-access
  // shared counter remains on the hot path.
  thread_local uint32_t tick = 0;
  if ((++tick & 63u) == 0) {
    const uint64_t n = static_cast<uint64_t>(accesses_.Sum());
    uint64_t expected = next_age_at_.load(std::memory_order_relaxed);
    if (n >= expected &&
        next_age_at_.compare_exchange_strong(expected, n + sample_period_,
                                             std::memory_order_relaxed)) {
      // Relaxed halving races with increments but the estimate only needs to
      // be approximate.
      for (auto& counter : sketch_) {
        counter.store(counter.load(std::memory_order_relaxed) / 2,
                      std::memory_order_relaxed);
      }
    }
  }
}

uint32_t ConcurrentTinyLfu::SketchEstimate(uint64_t id) const {
  uint32_t m = 0xFFFFFFFFu;
  for (int row = 0; row < 4; ++row) {
    m = std::min(m, sketch_[static_cast<uint64_t>(row) * (sketch_mask_ + 1) +
                            (Mix64(id ^ kRowSeeds[row]) & sketch_mask_)]
                        .load(std::memory_order_relaxed));
  }
  return m;
}

bool ConcurrentTinyLfu::Get(uint64_t id) {
  SketchIncrement(id);

  Shard& s = ShardFor(id);
  EbrDomain::Guard guard;
  if (Entry* e = s.index.Find(id)) {
    (void)ReadValuePayload(e->value.get(), config_.value_size);
    // Hits need the list lock for SLRU promotions — the cost the paper calls
    // out; sharding shrinks the critical section's scope but not its nature.
    {
      std::lock_guard<ShardLock> lock(s.lock);
      if (e->hook.linked()) {  // not concurrently evicted
        PromoteLocked(s, e);
      }
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
      s.window.PushFront(e);
      ++s.window_count;
      HandleOverflowLocked(s, victims);
      // The window holds at least one entry besides the newest, so the
      // overflow pass never rejects `e` itself.
      s.index.InsertIfAbsent(id, e);
      s.resident.store(s.window_count + s.probation_count + s.protected_count,
                       std::memory_order_relaxed);
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

void ConcurrentTinyLfu::PromoteLocked(Shard& s, Entry* e) {
  switch (e->where) {
    case Where::kWindow:
      s.window.MoveToFront(e);
      break;
    case Where::kProbation:
      s.probation.Remove(e);
      --s.probation_count;
      e->where = Where::kProtected;
      s.protected_q.PushFront(e);
      ++s.protected_count;
      while (s.protected_count > s.protected_capacity) {
        Entry* tail = s.protected_q.PopBack();
        if (tail == nullptr) {
          break;
        }
        --s.protected_count;
        tail->where = Where::kProbation;
        s.probation.PushFront(tail);
        ++s.probation_count;
      }
      break;
    case Where::kProtected:
      s.protected_q.MoveToFront(e);
      break;
  }
}

void ConcurrentTinyLfu::EvictLocked(Shard& s, Entry* victim, std::vector<Entry*>& victims) {
  s.index.Erase(victim->id);
  victims.push_back(victim);
}

void ConcurrentTinyLfu::HandleOverflowLocked(Shard& s, std::vector<Entry*>& victims) {
  while (s.window_count > s.window_capacity) {
    Entry* candidate = s.window.Back();
    if (candidate == nullptr) {
      return;
    }
    s.window.Remove(candidate);
    --s.window_count;
    if (s.probation_count + s.protected_count <
        s.probation_capacity + s.protected_capacity) {
      candidate->where = Where::kProbation;
      s.probation.PushFront(candidate);
      ++s.probation_count;
      continue;
    }
    Entry* victim = s.probation.Back();
    if (victim == nullptr) {
      victim = s.protected_q.Back();
    }
    if (victim == nullptr) {
      EvictLocked(s, candidate, victims);
      continue;
    }
    if (SketchEstimate(candidate->id) > SketchEstimate(victim->id)) {
      if (victim->where == Where::kProbation) {
        s.probation.Remove(victim);
        --s.probation_count;
      } else {
        s.protected_q.Remove(victim);
        --s.protected_count;
      }
      EvictLocked(s, victim, victims);
      candidate->where = Where::kProbation;
      s.probation.PushFront(candidate);
      ++s.probation_count;
    } else {
      EvictLocked(s, candidate, victims);
    }
  }
}

uint64_t ConcurrentTinyLfu::ApproxSize() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->resident.load(std::memory_order_relaxed);
  }
  return total;
}

ConcurrentCacheStats ConcurrentTinyLfu::Stats() const {
  return {static_cast<uint64_t>(hits_.Sum()), static_cast<uint64_t>(misses_.Sum())};
}

}  // namespace s3fifo
