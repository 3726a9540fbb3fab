#include "src/analysis/demotion.h"

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/analysis/eviction_age.h"
#include "src/core/cache_factory.h"
#include "src/policies/arc.h"
#include "src/policies/s3fifo.h"
#include "src/policies/tinylfu.h"

namespace s3fifo {

bool TrySetDemotionListener(Cache& cache, DemotionListener listener) {
  if (auto* s3 = dynamic_cast<S3FifoCache*>(&cache)) {
    s3->set_demotion_listener(std::move(listener));
    return true;
  }
  if (auto* tl = dynamic_cast<TinyLfuCache*>(&cache)) {
    tl->set_demotion_listener(std::move(listener));
    return true;
  }
  if (auto* arc = dynamic_cast<ArcCache*>(&cache)) {
    arc->set_demotion_listener(std::move(listener));
    return true;
  }
  return false;
}

double LruEvictionAge(const Trace& trace, const CacheConfig& config) {
  auto lru = CreateCache("lru", config);
  const EvictionProfile profile = CollectEvictionProfile(trace, *lru);
  return profile.mean_last_access_age;
}

DemotionMetrics MeasureDemotion(const Trace& trace, Cache& cache, double lru_eviction_age) {
  if (!trace.annotated()) {
    throw std::invalid_argument("MeasureDemotion requires AnnotateNextAccess(trace)");
  }

  // next_reuse_of[id]: the next-access index of the most recent request to
  // id, maintained while replaying so it is current whenever the demotion
  // listener fires.
  std::unordered_map<uint64_t, uint64_t> next_reuse_of;
  next_reuse_of.reserve(trace.size() / 4 + 16);

  struct StageExit {
    uint64_t leave_time;
    uint64_t next_reuse;  // absolute request index; kNeverAccessed if none
    bool promoted;
  };
  std::vector<StageExit> exits;
  double stage_time_sum = 0.0;

  const bool supported = TrySetDemotionListener(cache, [&](const DemotionEvent& ev) {
    StageExit e;
    e.leave_time = ev.leave_time;
    auto it = next_reuse_of.find(ev.id);
    e.next_reuse = it == next_reuse_of.end() ? kNeverAccessed : it->second;
    e.promoted = ev.promoted;
    exits.push_back(e);
    stage_time_sum += static_cast<double>(ev.leave_time - ev.enter_time);
  });
  if (!supported) {
    throw std::invalid_argument("policy '" + cache.Name() + "' has no demotion events");
  }

  const std::vector<uint64_t>& next_access = trace.next_access();
  uint64_t hits = 0;
  uint64_t measured = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Request& req = trace[i];
    next_reuse_of[req.id] = next_access[i];
    const bool hit = cache.Get(req);
    if (req.op != OpType::kDelete) {
      ++measured;
      if (hit) {
        ++hits;
      }
    }
  }
  TrySetDemotionListener(cache, nullptr);

  DemotionMetrics m;
  m.miss_ratio =
      measured == 0 ? 0.0 : 1.0 - static_cast<double>(hits) / static_cast<double>(measured);
  const double reuse_threshold =
      m.miss_ratio > 0.0 ? static_cast<double>(cache.capacity()) / m.miss_ratio
                         : static_cast<double>(trace.size());
  uint64_t correct = 0;
  for (const StageExit& e : exits) {
    if (e.promoted) {
      ++m.promotions;
      continue;
    }
    ++m.demotions;
    const double dist = e.next_reuse == kNeverAccessed
                            ? static_cast<double>(trace.size())
                            : static_cast<double>(e.next_reuse - e.leave_time);
    if (dist > reuse_threshold) {
      ++correct;
    }
  }
  m.mean_time_in_stage =
      exits.empty() ? 0.0 : stage_time_sum / static_cast<double>(exits.size());
  m.normalized_speed =
      m.mean_time_in_stage > 0.0 ? lru_eviction_age / m.mean_time_in_stage : 0.0;
  m.precision =
      m.demotions == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(m.demotions);
  return m;
}

}  // namespace s3fifo
