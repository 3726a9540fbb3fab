#include "src/policies/s3fifo.h"

#include <algorithm>

#include "src/util/params.h"

namespace s3fifo {

namespace {
// Tail entries examined per gather in the batched FIFO-reinsertion sweep.
constexpr int kSweepBatch = 16;
}  // namespace

S3FifoCache::S3FifoCache(const CacheConfig& config) : Cache(config) {
  const Params params(config.params);
  const double small_ratio = std::clamp(params.GetDouble("small_ratio", 0.1), 0.001, 0.999);
  small_target_ = std::max<uint64_t>(static_cast<uint64_t>(capacity() * small_ratio), 1);
  if (small_target_ >= capacity()) {
    small_target_ = capacity() > 1 ? capacity() - 1 : 1;
  }
  main_target_ = capacity() - small_target_;
  move_threshold_ = static_cast<uint32_t>(
      std::clamp<uint64_t>(params.GetU64("move_to_main_threshold", 2), 1, 16));
  max_freq_ = static_cast<uint32_t>(std::clamp<uint64_t>(params.GetU64("max_freq", 3), 1, 255));
  small_lru_ = params.GetBool("small_lru", false);
  main_lru_ = params.GetBool("main_lru", false);
  main_sieve_ = params.GetBool("main_sieve", false);

  const double ghost_ratio = params.GetDouble("ghost_ratio", 0.9);
  const uint64_t entries = count_based()
                               ? capacity()
                               : std::max<uint64_t>(capacity() / 4096, 16);
  const uint64_t ghost_entries =
      std::max<uint64_t>(static_cast<uint64_t>(entries * ghost_ratio), 1);
  const std::string ghost_type = params.GetString("ghost_type", "exact");
  if (ghost_type == "table") {
    ghost_table_ = std::make_unique<GhostTable>(ghost_entries);
  } else {
    ghost_exact_ = std::make_unique<GhostQueue>(ghost_entries);
  }
}

void S3FifoCache::set_small_target(uint64_t target) {
  // At capacity 1 the range [1, capacity - 1] is empty; S keeps its one slot.
  small_target_ = capacity() > 1 ? std::clamp<uint64_t>(target, 1, capacity() - 1) : 1;
  main_target_ = capacity() - small_target_;
}

bool S3FifoCache::Contains(uint64_t id) const { return table_.Contains(id); }

bool S3FifoCache::GhostContains(uint64_t id) const {
  return ghost_exact_ ? ghost_exact_->Contains(id) : ghost_table_->Contains(id);
}

uint64_t S3FifoCache::ghost_size() const {
  return ghost_exact_ ? ghost_exact_->size() : ghost_table_->CountLive();
}

uint64_t S3FifoCache::GhostCapacityEntries() const {
  return ghost_exact_ ? ghost_exact_->capacity() : ghost_table_->capacity();
}

void S3FifoCache::GhostInsert(uint64_t id) {
  if (ghost_exact_) {
    ghost_exact_->Insert(id);
  } else {
    ghost_table_->Insert(id);
  }
}

bool S3FifoCache::GhostHitAndErase(uint64_t id) {
  if (ghost_exact_) {
    return ghost_exact_->Remove(id);
  }
  if (ghost_table_->Contains(id)) {
    ghost_table_->Remove(id);
    return true;
  }
  return false;
}

void S3FifoCache::FireEviction(const Entry& e, bool explicit_delete) {
  EvictionEvent ev;
  ev.id = e.id;
  ev.size = e.size;
  ev.access_count = e.hits;
  ev.insert_time = e.insert_time;
  ev.last_access_time = e.last_access_time;
  ev.evict_time = clock();
  ev.explicit_delete = explicit_delete;
  NotifyEviction(ev);
}

void S3FifoCache::NotifyDemotion(const Entry& e, bool promoted) {
  if (demotion_listener_) {
    DemotionEvent ev;
    ev.id = e.id;
    ev.enter_time = e.stage_enter_time;
    ev.leave_time = clock();
    ev.promoted = promoted;
    demotion_listener_(ev);
  }
}

void S3FifoCache::Remove(uint64_t id) {
  Entry* found = table_.Find(id);
  if (found == nullptr) {
    return;
  }
  Entry& e = *found;
  if (e.in_small) {
    small_.Remove(&e);
    small_occ_ -= e.size;
  } else {
    if (sieve_hand_ == &e) {
      sieve_hand_ = main_.Newer(&e);
    }
    main_.Remove(&e);
    main_occ_ -= e.size;
  }
  SubOccupied(e.size);
  FireEviction(e, /*explicit_delete=*/true);
  table_.Erase(id);
}

void S3FifoCache::EvictFromSmall() {
  Entry* t = small_.Back();
  if (t == nullptr) {
    return;
  }
  if (t->freq >= move_threshold_) {
    // Promote to M; the access bits are cleared during the move (§4.1).
    NotifyDemotion(*t, /*promoted=*/true);
    small_.Remove(t);
    small_occ_ -= t->size;
    t->in_small = false;
    t->freq = 0;
    main_.PushFront(t);
    main_occ_ += t->size;
    ++stats_.moved_to_main;
    while (main_occ_ > main_target_) {
      EvictFromMain();
    }
  } else {
    NotifyDemotion(*t, /*promoted=*/false);
    small_.Remove(t);
    small_occ_ -= t->size;
    SubOccupied(t->size);
    GhostInsert(t->id);
    ++stats_.demoted_to_ghost;
    FireEviction(*t, /*explicit_delete=*/false);
    OnDemotionToGhost(t->id);
    table_.Erase(t->id);
  }
}

void S3FifoCache::EvictFromMain() {
  if (main_sieve_) {
    // §7 extension: SIEVE eviction — walk the hand from the tail toward the
    // head, decrementing counters in place; survivors keep their position.
    Entry* t = sieve_hand_ != nullptr ? sieve_hand_ : main_.Back();
    while (t != nullptr && t->freq > 0) {
      --t->freq;
      ++stats_.main_reinsertions;  // a "spare", SIEVE-style
      t = main_.Newer(t);
      if (t == nullptr) {
        t = main_.Back();
      }
    }
    if (t == nullptr) {
      return;
    }
    sieve_hand_ = main_.Newer(t);
    main_.Remove(t);
    main_occ_ -= t->size;
    SubOccupied(t->size);
    ++stats_.main_evictions;
    FireEviction(*t, /*explicit_delete=*/false);
    OnMainEviction(t->id);
    table_.Erase(t->id);
    return;
  }
  // FIFO-reinsertion: terminates because every reinsertion decrements freq.
  //
  // The sweep is batched like ClockCache::EvictOne: gather the freq bits of
  // up to kSweepBatch tail entries into a mask, find the first zero-freq
  // victim with ctz, then decrement the survivors before it and rotate them
  // to the head with one segment splice.
  while (!main_.empty()) {
    Entry* chain[kSweepBatch];
    uint32_t referenced = 0;
    int n = 0;
    for (Entry* t = main_.Back(); t != nullptr && n < kSweepBatch; t = main_.Newer(t)) {
      chain[n] = t;
      referenced |= static_cast<uint32_t>(t->freq > 0) << n;
      ++n;
      // The victim is the first zero-freq entry — later bits never reach the
      // ctz. Keeps the common case (tail immediately evictable) at one visit.
      if (t->freq == 0) {
        break;
      }
    }
    const uint32_t zeros = ~referenced & ((1u << n) - 1u);
    const int victim = zeros != 0 ? __builtin_ctz(zeros) : n;
    for (int k = 0; k < victim; ++k) {
      --chain[k]->freq;
    }
    stats_.main_reinsertions += static_cast<uint64_t>(victim);
    if (victim > 0) {
      main_.MoveSegmentToFront(chain[victim - 1], chain[0]);
    }
    if (victim < n) {
      Entry* t = chain[victim];
      main_.Remove(t);
      main_occ_ -= t->size;
      SubOccupied(t->size);
      ++stats_.main_evictions;
      FireEviction(*t, /*explicit_delete=*/false);
      OnMainEviction(t->id);
      table_.Erase(t->id);
      return;
    }
  }
}

void S3FifoCache::EnsureFree(uint64_t need) {
  while (occupied() + need > capacity()) {
    if ((small_occ_ > small_target_ && !small_.empty()) || main_.empty()) {
      EvictFromSmall();
    } else {
      EvictFromMain();
    }
    if (small_.empty() && main_.empty()) {
      return;
    }
  }
}

bool S3FifoCache::Access(const Request& req) {
  const uint64_t need = SizeOf(req);
  if (Entry* found = table_.Find(req.id)) {
    Entry& e = *found;
    e.freq = std::min(e.freq + 1, max_freq_);
    ++e.hits;
    e.last_access_time = clock();
    if (small_lru_ && e.in_small) {
      small_.MoveToFront(&e);
    } else if (main_lru_ && !e.in_small) {
      main_.MoveToFront(&e);
    }
    if (!count_based() && e.size != need) {
      SubOccupied(e.size);
      if (e.in_small) {
        small_occ_ += need;
        small_occ_ -= e.size;
      } else {
        main_occ_ += need;
        main_occ_ -= e.size;
      }
      e.size = need;
      AddOccupied(e.size);
      EnsureFree(0);
    }
    return true;
  }

  OnMissLookup(req.id);
  if (need > capacity()) {
    return false;
  }
  EnsureFree(need);
  const bool ghost_hit = GhostHitAndErase(req.id);
  Entry& e = *table_.Emplace(req.id);
  e.id = req.id;
  e.size = need;
  e.freq = 0;
  e.insert_time = clock();
  e.stage_enter_time = clock();
  e.last_access_time = clock();
  if (ghost_hit) {
    e.in_small = false;
    main_.PushFront(&e);
    main_occ_ += need;
    ++stats_.ghost_hit_inserts;
  } else {
    e.in_small = true;
    small_.PushFront(&e);
    small_occ_ += need;
    ++stats_.inserted_to_small;
  }
  AddOccupied(need);
  return false;
}

void S3FifoCache::AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
  BatchLoop<S3FifoCache>(view, begin, end, hits);
}

}  // namespace s3fifo
