#include "src/policies/sieve.h"

#include <algorithm>

namespace s3fifo {

namespace {
// Entries examined per gather in the batched hand sweep. 16 keeps the
// visited mask in one register and the entry pointers in one stack line.
constexpr int kSweepBatch = 16;
}  // namespace

SieveCache::SieveCache(const CacheConfig& config) : Cache(config) {}

bool SieveCache::Contains(uint64_t id) const { return table_.Contains(id); }

void SieveCache::Remove(uint64_t id) {
  if (Entry* e = table_.Find(id)) {
    RemoveEntry(e, /*explicit_delete=*/true);
  }
}

void SieveCache::RemoveEntry(Entry* entry, bool explicit_delete) {
  if (hand_ == entry) {
    hand_ = queue_.Newer(entry);  // hand advances toward the head
  }
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

void SieveCache::EvictOne() {
  // Walk from the hand toward the head, clearing visited bits; wrap to the
  // tail when the head is passed. Terminates within two passes: the first
  // pass clears every visited bit on its path.
  //
  // The walk is batched: gather the visited bits of a chunk of entries into
  // a mask (reads only), find the first unvisited entry with ctz, and clear
  // the bits before it. The chunk is capped at the queue size so the
  // wrapping walk never reads the same entry twice within a chunk — a
  // duplicate would see the pre-clear visited bit and diverge from the
  // one-at-a-time walk.
  Entry* obj = hand_ != nullptr ? hand_ : queue_.Back();
  while (obj != nullptr) {
    const int limit = static_cast<int>(std::min<size_t>(kSweepBatch, queue_.size()));
    Entry* chain[kSweepBatch];
    uint32_t visited = 0;
    int n = 0;
    Entry* e = obj;
    while (n < limit) {
      chain[n] = e;
      visited |= static_cast<uint32_t>(e->visited) << n;
      ++n;
      // The victim is the first unvisited entry — later bits can never matter
      // to the ctz below. Stopping here keeps the common case (hand already
      // on an unvisited entry) at one node visit.
      if (!e->visited) {
        break;
      }
      e = queue_.Newer(e);
      if (e == nullptr) {
        e = queue_.Back();
      }
    }
    const uint32_t unvisited = ~visited & ((1u << n) - 1u);
    if (unvisited == 0) {
      for (int k = 0; k < n; ++k) {
        chain[k]->visited = false;
      }
      obj = e;  // resume the walk where the gather stopped (already wrapped)
      continue;
    }
    const int victim = __builtin_ctz(unvisited);
    for (int k = 0; k < victim; ++k) {
      chain[k]->visited = false;
    }
    hand_ = chain[victim];  // RemoveEntry advances the hand to the next-newer entry
    RemoveEntry(chain[victim], /*explicit_delete=*/false);
    return;
  }
}

bool SieveCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    ++e.hits;
    e.visited = true;
    e.last_access_time = clock();
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

void SieveCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  BatchLoop<SieveCache>(view, begin, end, hits);
}

}  // namespace s3fifo
