#include "src/policies/lecar.h"

#include <algorithm>
#include <cmath>

#include "src/util/params.h"

namespace s3fifo {
namespace {

uint64_t HistoryEntries(const CacheConfig& config) {
  return config.count_based ? std::max<uint64_t>(config.capacity, 1)
                            : std::max<uint64_t>(config.capacity / 4096, 16);
}

}  // namespace

LeCarCache::LeCarCache(const CacheConfig& config)
    : Cache(config),
      rng_(config.seed),
      h_lru_(HistoryEntries(config)),
      h_lfu_(HistoryEntries(config)) {
  const Params params(config.params);
  learning_rate_ = params.GetDouble("learning_rate", 0.45);
  const double base = params.GetDouble("discount_base", 0.005);
  discount_ = std::pow(base, 1.0 / static_cast<double>(HistoryEntries(config)));
}

bool LeCarCache::Contains(uint64_t id) const { return table_.count(id) != 0; }

void LeCarCache::Remove(uint64_t id) {
  auto it = table_.find(id);
  if (it != table_.end()) {
    RemoveEntry(&it->second, /*explicit_delete=*/true, /*history=*/-1);
  }
}

void LeCarCache::RemoveEntry(Entry* entry, bool explicit_delete, int history) {
  EvictionEvent ev;
  ev.id = entry->id;
  ev.size = entry->size;
  ev.access_count = entry->hits;
  ev.insert_time = entry->insert_time;
  ev.last_access_time = entry->last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  lru_.Remove(entry);
  lfu_order_.erase(KeyOf(*entry));
  SubOccupied(entry->size);
  if (history >= 0) {
    History& h = history == 0 ? h_lru_ : h_lfu_;
    h.ids.Insert(entry->id);
    h.evict_time[entry->id] = clock();
    // The ghost queue expires ids silently; compact the timestamp map when
    // stale entries accumulate.
    if (h.evict_time.size() > 2 * h.ids.capacity() + 64) {
      for (auto iter = h.evict_time.begin(); iter != h.evict_time.end();) {
        iter = h.ids.Contains(iter->first) ? std::next(iter) : h.evict_time.erase(iter);
      }
    }
  }
  table_.erase(entry->id);
  NotifyEviction(ev);
}

void LeCarCache::EvictOne() {
  if (table_.empty()) {
    return;
  }
  const bool use_lru = rng_.NextDouble() < w_lru_;
  Entry* lru_victim = lru_.Back();
  Entry* lfu_victim =
      lfu_order_.empty() ? nullptr : &table_.at(std::get<2>(*lfu_order_.begin()));
  Entry* victim = use_lru ? lru_victim : lfu_victim;
  if (victim == nullptr) {
    victim = use_lru ? lfu_victim : lru_victim;
  }
  if (victim == nullptr) {
    return;
  }
  // If both experts would pick the same victim, no history attribution is
  // meaningful — record under the sampled expert anyway (as the reference
  // implementation does).
  RemoveEntry(victim, /*explicit_delete=*/false, use_lru ? 0 : 1);
}

void LeCarCache::ApplyPenalty(double& w_penalised, double& w_other, uint64_t evict_time) {
  const double age = static_cast<double>(clock() - evict_time);
  const double regret = std::pow(discount_, age);
  w_penalised *= std::exp(-learning_rate_ * regret);
  const double total = w_penalised + w_other;
  w_penalised /= total;
  w_other /= total;
}

bool LeCarCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  auto it = table_.find(req.id);
  if (it != table_.end()) {
    Entry& e = it->second;
    lfu_order_.erase(KeyOf(e));
    ++e.freq;
    ++e.hits;
    e.last_access_time = clock();
    lru_.MoveToFront(&e);
    if (!count_based() && e.size != need) {
      SubOccupied(e.size);
      e.size = need;
      AddOccupied(e.size);
    }
    lfu_order_.insert(KeyOf(e));
    while (occupied() > capacity() && !table_.empty()) {
      EvictOne();
    }
    return true;
  }

  // Ghost hits adjust expert weights before the insert.
  if (h_lru_.ids.Remove(req.id)) {
    ApplyPenalty(w_lru_, w_lfu_, h_lru_.evict_time[req.id]);
    h_lru_.evict_time.erase(req.id);
  } else if (h_lfu_.ids.Remove(req.id)) {
    ApplyPenalty(w_lfu_, w_lru_, h_lfu_.evict_time[req.id]);
    h_lfu_.evict_time.erase(req.id);
  }

  if (need > capacity()) {
    return false;
  }
  while (occupied() + need > capacity()) {
    EvictOne();
  }
  Entry& e = table_[req.id];
  e.id = req.id;
  e.size = need;
  e.freq = 1;
  e.insert_time = clock();
  e.last_access_time = clock();
  lru_.PushFront(&e);
  lfu_order_.insert(KeyOf(e));
  AddOccupied(need);
  return false;
}

}  // namespace s3fifo
