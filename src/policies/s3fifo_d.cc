#include "src/policies/s3fifo_d.h"

#include <algorithm>

#include "src/util/params.h"

namespace s3fifo {
namespace {

uint64_t AdaptGhostEntries(const CacheConfig& config) {
  const Params params(config.params);
  const double ratio = params.GetDouble("adapt_ghost_ratio", 0.05);
  const uint64_t entries =
      config.count_based ? config.capacity : std::max<uint64_t>(config.capacity / 4096, 16);
  return std::max<uint64_t>(static_cast<uint64_t>(entries * ratio), 1);
}

}  // namespace

S3FifoDCache::S3FifoDCache(const CacheConfig& config)
    : S3FifoCache(config),
      small_evicted_(AdaptGhostEntries(config)),
      main_evicted_(AdaptGhostEntries(config)) {
  const Params params(config.params);
  min_hits_ = params.GetU64("adapt_min_hits", 100);
  imbalance_ = params.GetDouble("adapt_imbalance", 2.0);
  step_ = std::max<uint64_t>(
      static_cast<uint64_t>(capacity() * params.GetDouble("adapt_step_ratio", 0.001)), 1);
}

void S3FifoDCache::OnDemotionToGhost(uint64_t id) { small_evicted_.Insert(id); }

void S3FifoDCache::OnMainEviction(uint64_t id) { main_evicted_.Insert(id); }

void S3FifoDCache::OnMissLookup(uint64_t id) {
  if (small_evicted_.Remove(id)) {
    ++small_ghost_hits_;
  }
  if (main_evicted_.Remove(id)) {
    ++main_ghost_hits_;
  }
  MaybeRebalance();
}

void S3FifoDCache::MaybeRebalance() {
  if (small_ghost_hits_ + main_ghost_hits_ <= min_hits_) {
    return;
  }
  const double hi = static_cast<double>(std::max(small_ghost_hits_, main_ghost_hits_));
  const double lo = static_cast<double>(std::min(small_ghost_hits_, main_ghost_hits_));
  if (hi < imbalance_ * std::max(lo, 1.0)) {
    return;
  }
  // Hits on S-evicted objects mean S evicts too eagerly: grow S (and vice
  // versa). Minimising the marginal-hit gradient, per §6.2.2.
  if (small_ghost_hits_ > main_ghost_hits_) {
    set_small_target(std::min<uint64_t>(small_target() + step_, capacity() - 1));
  } else {
    set_small_target(small_target() > step_ ? small_target() - step_ : 1);
  }
  ++adaptations_;
  small_ghost_hits_ = 0;
  main_ghost_hits_ = 0;
}

}  // namespace s3fifo
