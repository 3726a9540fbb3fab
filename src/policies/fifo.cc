#include "src/policies/fifo.h"

namespace s3fifo {

FifoCache::FifoCache(const CacheConfig& config) : Cache(config) {}

bool FifoCache::Contains(uint64_t id) const { return table_.Contains(id); }

void FifoCache::Remove(uint64_t id) {
  if (Entry* e = table_.Find(id)) {
    RemoveEntry(e, /*explicit_delete=*/true);
  }
}

void FifoCache::RemoveEntry(Entry* entry, bool explicit_delete) {
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

void FifoCache::EvictOne() {
  Entry* victim = queue_.Back();
  if (victim != nullptr) {
    RemoveEntry(victim, /*explicit_delete=*/false);
  }
}

bool FifoCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    ++e.hits;
    e.last_access_time = clock();
    if (!count_based() && e.size != need) {
      // Updated object size (kSet with a new value): adjust occupancy.
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
    return false;  // cannot fit even an empty cache; bypass
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

void FifoCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  BatchLoop<FifoCache>(view, begin, end, hits);
}

}  // namespace s3fifo
