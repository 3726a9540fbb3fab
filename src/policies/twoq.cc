#include "src/policies/twoq.h"

#include <algorithm>

#include "src/util/params.h"

namespace s3fifo {
namespace {

uint64_t GhostEntries(const CacheConfig& config, double kout_ratio) {
  // A1out holds ids, not data; size it in entries. In byte mode approximate
  // entries by capacity / 4KB, the paper's reference object size.
  const uint64_t units = config.count_based ? config.capacity
                                            : std::max<uint64_t>(config.capacity / 4096, 16);
  return std::max<uint64_t>(static_cast<uint64_t>(units * kout_ratio), 1);
}

}  // namespace

TwoQCache::TwoQCache(const CacheConfig& config)
    : Cache(config), a1out_(GhostEntries(config, Params(config.params).GetDouble("kout_ratio", 0.5))) {
  const Params params(config.params);
  const double kin_ratio = params.GetDouble("kin_ratio", 0.25);
  kin_capacity_ = std::max<uint64_t>(static_cast<uint64_t>(capacity() * kin_ratio), 1);
}

bool TwoQCache::Contains(uint64_t id) const { return table_.count(id) != 0; }

void TwoQCache::Remove(uint64_t id) {
  auto it = table_.find(id);
  if (it != table_.end()) {
    RemoveEntry(&it->second, /*explicit_delete=*/true, /*to_ghost=*/false);
  }
}

void TwoQCache::RemoveEntry(Entry* entry, bool explicit_delete, bool to_ghost) {
  EvictionEvent ev;
  ev.id = entry->id;
  ev.size = entry->size;
  ev.access_count = entry->hits;
  ev.insert_time = entry->insert_time;
  ev.last_access_time = entry->last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  if (entry->where == Where::kA1In) {
    a1in_.Remove(entry);
    a1in_occupied_ -= entry->size;
  } else {
    am_.Remove(entry);
  }
  SubOccupied(entry->size);
  if (to_ghost) {
    a1out_.Insert(entry->id);
  }
  table_.erase(entry->id);
  NotifyEviction(ev);
}

void TwoQCache::EvictOne() {
  // Reclaim from A1in while it exceeds its share (remembering the id in
  // A1out); otherwise evict the Am LRU tail.
  if (a1in_occupied_ > kin_capacity_ || am_.empty()) {
    if (Entry* tail = a1in_.Back()) {
      RemoveEntry(tail, /*explicit_delete=*/false, /*to_ghost=*/true);
      return;
    }
  }
  if (Entry* tail = am_.Back()) {
    RemoveEntry(tail, /*explicit_delete=*/false, /*to_ghost=*/false);
  }
}

bool TwoQCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  auto it = table_.find(req.id);
  if (it != table_.end()) {
    Entry& e = it->second;
    ++e.hits;
    e.last_access_time = clock();
    if (e.where == Where::kAm) {
      am_.MoveToFront(&e);
    }
    // A1in hits leave the object in place (2Q's "correlated reference"
    // window): only a re-request after demotion promotes to Am.
    if (!count_based() && e.size != need) {
      SubOccupied(e.size);
      if (e.where == Where::kA1In) {
        a1in_occupied_ -= e.size;
        a1in_occupied_ += need;
      }
      e.size = need;
      AddOccupied(e.size);
      while (occupied() > capacity()) {
        EvictOne();
      }
    }
    return true;
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
  e.insert_time = clock();
  e.last_access_time = clock();
  if (a1out_.Remove(req.id)) {
    e.where = Where::kAm;
    am_.PushFront(&e);
  } else {
    e.where = Where::kA1In;
    a1in_.PushFront(&e);
    a1in_occupied_ += need;
  }
  AddOccupied(need);
  return false;
}

}  // namespace s3fifo
