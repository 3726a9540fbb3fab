// LeCaR (Vietri et al., HotStorage'18): regret-minimisation over two expert
// policies, LRU and LFU. Eviction draws an expert proportionally to learned
// weights; the victim's id enters that expert's ghost history, and a later
// miss on a ghost id applies a time-discounted multiplicative penalty to the
// expert that evicted it.
//
// Params: learning_rate=0.45, discount_base=0.005 (discount =
// discount_base^(1/N) per the original implementation).
#ifndef SRC_POLICIES_LECAR_H_
#define SRC_POLICIES_LECAR_H_

#include <set>
#include <unordered_map>

#include "src/core/cache.h"
#include "src/util/ghost_queue.h"
#include "src/util/intrusive_list.h"
#include "src/util/rng.h"

namespace s3fifo {

class LeCarCache : public Cache {
 public:
  explicit LeCarCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "lecar"; }

  double weight_lru() const { return w_lru_; }

 protected:
  bool Access(const Request& req) override;

  double learning_rate_ = 0.45;

 private:
  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t freq = 1;  // total references (insert counts as 1), LFU metric
    uint32_t hits = 0;
    uint64_t insert_time = 0;
    uint64_t last_access_time = 0;
    ListHook lru_hook;
  };
  using VictimKey = std::tuple<uint32_t, uint64_t, uint64_t>;  // (freq, last, id)

  void EvictOne();
  void RemoveEntry(Entry* entry, bool explicit_delete, int history);  // -1 none, 0 lru, 1 lfu
  void ApplyPenalty(double& w_penalised, double& w_other, uint64_t evict_time);
  VictimKey KeyOf(const Entry& e) const { return {e.freq, e.last_access_time, e.id}; }

  double w_lru_ = 0.5;
  double w_lfu_ = 0.5;
  double discount_;
  Rng rng_;

  std::unordered_map<uint64_t, Entry> table_;
  IntrusiveList<Entry, &Entry::lru_hook> lru_;
  std::set<VictimKey> lfu_order_;

  struct History {
    GhostQueue ids;
    std::unordered_map<uint64_t, uint64_t> evict_time;
    explicit History(uint64_t cap) : ids(cap) {}
  };
  History h_lru_;
  History h_lfu_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_LECAR_H_
