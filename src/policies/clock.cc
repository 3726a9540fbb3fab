#include "src/policies/clock.h"

#include <algorithm>

#include "src/util/params.h"

namespace s3fifo {

namespace {
// Tail entries examined per gather in the batched eviction sweep. 16 keeps
// the survivor mask in one register and the entry pointers in one stack line.
constexpr int kSweepBatch = 16;
}  // namespace

ClockCache::ClockCache(const CacheConfig& config) : Cache(config) {
  const Params params(config.params);
  const uint64_t bits = std::clamp<uint64_t>(params.GetU64("bits", 1), 1, 8);
  max_ref_ = (1u << bits) - 1;
}

bool ClockCache::Contains(uint64_t id) const { return table_.Contains(id); }

void ClockCache::Remove(uint64_t id) {
  if (Entry* e = table_.Find(id)) {
    RemoveEntry(e, /*explicit_delete=*/true);
  }
}

void ClockCache::RemoveEntry(Entry* entry, bool explicit_delete) {
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

void ClockCache::EvictOne() {
  // Reinsert referenced victims (decrementing), evict the first unreferenced
  // one. Terminates: every reinsertion decrements a counter.
  //
  // The sweep is batched: gather the referenced bits of up to kSweepBatch
  // tail entries into a mask (reads only), find the first unreferenced entry
  // with ctz, then decrement the survivors before it and rotate them to the
  // head with one segment splice. Decision-for-decision identical to moving
  // entries one at a time.
  while (!queue_.empty()) {
    Entry* chain[kSweepBatch];
    uint32_t referenced = 0;
    int n = 0;
    for (Entry* e = queue_.Back(); e != nullptr && n < kSweepBatch; e = queue_.Newer(e)) {
      chain[n] = e;
      referenced |= static_cast<uint32_t>(e->ref > 0) << n;
      ++n;
      // The victim is the first unreferenced entry, so bits past it can never
      // matter to the ctz below — stop gathering. Keeps the common case (tail
      // immediately evictable) at one node visit instead of kSweepBatch hops.
      if (e->ref == 0) {
        break;
      }
    }
    const uint32_t zeros = ~referenced & ((1u << n) - 1u);
    const int victim = zeros != 0 ? __builtin_ctz(zeros) : n;
    for (int k = 0; k < victim; ++k) {
      --chain[k]->ref;
    }
    if (victim > 0) {
      queue_.MoveSegmentToFront(chain[victim - 1], chain[0]);
    }
    if (victim < n) {
      RemoveEntry(chain[victim], /*explicit_delete=*/false);
      return;
    }
  }
}

bool ClockCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    ++e.hits;
    e.ref = std::min(e.ref + 1, max_ref_);
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

void ClockCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  BatchLoop<ClockCache>(view, begin, end, hits);
}

}  // namespace s3fifo
