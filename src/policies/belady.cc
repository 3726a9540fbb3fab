#include "src/policies/belady.h"

#include "src/util/params.h"

namespace s3fifo {

BeladyCache::BeladyCache(const CacheConfig& config) : Cache(config) {
  bypass_never_ = Params(config.params).GetBool("bypass_never", false);
}

bool BeladyCache::Contains(uint64_t id) const { return table_.count(id) != 0; }

void BeladyCache::Remove(uint64_t id) { RemoveById(id, /*explicit_delete=*/true); }

void BeladyCache::RemoveById(uint64_t id, bool explicit_delete) {
  auto it = table_.find(id);
  if (it == table_.end()) {
    return;
  }
  const Entry& e = it->second;
  EvictionEvent ev;
  ev.id = id;
  ev.size = e.size;
  ev.access_count = e.hits;
  ev.insert_time = e.insert_time;
  ev.last_access_time = e.last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  order_.erase({e.next_access, id});
  SubOccupied(e.size);
  table_.erase(it);
  NotifyEviction(ev);
}

void BeladyCache::EvictFarthest() {
  if (order_.empty()) {
    return;
  }
  RemoveById(std::prev(order_.end())->second, /*explicit_delete=*/false);
}

bool BeladyCache::Access(const Request& req) { return AccessAt(req, kNeverAccessed); }

void BeladyCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end,
                              uint8_t* hits) {
  const Request* reqs = view.AsRequests();
  const uint64_t* next = view.NextAccess();
  for (uint64_t i = begin; i < end; ++i) {
    TickClock();
    const Request& req = reqs[i];
    if (req.op == OpType::kDelete) {
      Remove(req.id);
      hits[i - begin] = 0;
      continue;
    }
    hits[i - begin] = AccessAt(req, next == nullptr ? kNeverAccessed : next[i]) ? 1 : 0;
  }
}

bool BeladyCache::AccessAt(const Request& req, uint64_t next_access) {
  const uint64_t need = SizeOf(req);
  auto it = table_.find(req.id);
  if (it != table_.end()) {
    Entry& e = it->second;
    order_.erase({e.next_access, req.id});
    ++e.hits;
    e.last_access_time = clock();
    e.next_access = next_access;
    if (!count_based() && e.size != need) {
      SubOccupied(e.size);
      e.size = need;
      AddOccupied(e.size);
    }
    order_.insert({e.next_access, req.id});
    while (occupied() > capacity() && !order_.empty()) {
      EvictFarthest();
    }
    return true;
  }
  if (need > capacity()) {
    return false;
  }
  // Optional refinement (bypass_never): an object never requested again need
  // not be admitted (it cannot produce a hit). Off by default — classic OPT
  // admits on every miss, which is what the frequency-at-eviction analysis
  // of Fig. 4 assumes.
  if (bypass_never_ && next_access == kNeverAccessed) {
    return false;
  }
  while (occupied() + need > capacity()) {
    EvictFarthest();
  }
  Entry e;
  e.size = need;
  e.insert_time = clock();
  e.last_access_time = clock();
  e.next_access = next_access;
  table_.emplace(req.id, e);
  order_.insert({e.next_access, req.id});
  AddOccupied(need);
  return false;
}

}  // namespace s3fifo
