#include "src/policies/lru.h"

namespace s3fifo {

LruCache::LruCache(const CacheConfig& config) : Cache(config) {}

bool LruCache::Contains(uint64_t id) const { return table_.Contains(id); }

void LruCache::Remove(uint64_t id) {
  if (Entry* e = table_.Find(id)) {
    RemoveEntry(e, /*explicit_delete=*/true);
  }
}

void LruCache::RemoveEntry(Entry* entry, bool explicit_delete) {
  EvictionEvent ev;
  ev.id = entry->id;
  ev.size = entry->size;
  ev.access_count = entry->hits;
  ev.insert_time = entry->insert_time;
  ev.last_access_time = entry->last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  queue_.Remove(entry);
  SubOccupied(entry->size);
  table_.Erase(entry->id);
  NotifyEviction(ev);
}

void LruCache::EvictOne() {
  Entry* victim = queue_.Back();
  if (victim != nullptr) {
    RemoveEntry(victim, /*explicit_delete=*/false);
  }
}

bool LruCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    ++e.hits;
    e.last_access_time = clock();
    queue_.MoveToFront(&e);
    if (!count_based() && e.size != need) {
      SubOccupied(e.size);
      e.size = need;
      AddOccupied(e.size);
      while (occupied() > capacity() && !queue_.empty()) {
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
  Entry& e = *table_.Emplace(req.id);
  e.id = req.id;
  e.size = need;
  e.insert_time = clock();
  e.last_access_time = clock();
  queue_.PushFront(&e);
  AddOccupied(need);
  return false;
}

void LruCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  BatchLoop<LruCache>(view, begin, end, hits);
}

}  // namespace s3fifo
