// S3-FIFO — the paper's contribution (§4, Algorithm 1).
//
// Three static FIFO queues: a small probationary queue S (10% of the cache),
// a main queue M (90%), and a ghost queue G holding as many ghost entries
// (ids only) as M holds objects. Two access bits per object cap the
// frequency at 3.
//
//   * read hit: freq = min(freq + 1, 3); no queue mutation (lazy promotion);
//   * miss: insert to M's head if the id is in G, else to S's head;
//   * S eviction: tail moves to M if freq >= move_to_main_threshold (access
//     bits cleared in the move), else its id enters G and the object leaves
//     the cache — the quick-demotion step;
//   * M eviction: FIFO-reinsertion — tails with freq > 0 re-enter at the
//     head with freq - 1, others are evicted (not remembered in G).
//
// Algorithm-1 notes, reflected here and in DESIGN.md:
//   * line 34 reads "remove t from S" — a typo for "remove t from M";
//   * line 18 moves on "freq > 1" (two accesses after insertion) while the
//     abstract says "whether it has been accessed"; we default to the
//     literal pseudocode (threshold 2) and expose the knob
//     (bench_ablation_threshold sweeps it);
//   * when S is empty but the cache is full, eviction falls through to M.
//
// Params:
//   small_ratio=0.1            — S share of the capacity
//   ghost_ratio=0.9            — ghost entries as a fraction of the capacity
//                                (0.9 == "same number of entries as M")
//   move_to_main_threshold=2   — minimum freq for the S->M move
//   max_freq=3                 — two-bit counter cap
//   ghost_type=exact           — exact | table (§4.2 fingerprint table)
//   small_lru=0, main_lru=0    — §6.3 ablation: run S / M as LRU queues
//   main_sieve=0               — §7 extension: evict M with SIEVE (a moving
//                                hand + visited bit; survivors keep their
//                                position) instead of FIFO-reinsertion
#ifndef SRC_POLICIES_S3FIFO_H_
#define SRC_POLICIES_S3FIFO_H_

#include <memory>

#include "src/core/cache.h"
#include "src/core/demotion.h"
#include "src/util/flat_map.h"
#include "src/util/ghost_queue.h"
#include "src/util/ghost_table.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class S3FifoCache : public Cache {
 public:
  struct Stats {
    uint64_t inserted_to_small = 0;
    uint64_t ghost_hit_inserts = 0;   // misses admitted straight to M
    uint64_t moved_to_main = 0;       // S tail promoted to M
    uint64_t demoted_to_ghost = 0;    // S tail evicted (quick demotion)
    uint64_t main_reinsertions = 0;   // M tail given a second chance
    uint64_t main_evictions = 0;
  };

  explicit S3FifoCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "s3fifo"; }
  // Pulls both structures a miss will touch: the entry table's probe group
  // and — when the fingerprint ghost is active — the ghost bucket the
  // admission check reads.
  void Prefetch(uint64_t id) const override {
    table_.Prefetch(id);
    if (ghost_table_) {
      ghost_table_->Prefetch(id);
    }
  }

  const Stats& stats() const { return stats_; }
  uint64_t small_occupied() const { return small_occ_; }
  uint64_t main_occupied() const { return main_occ_; }
  uint64_t small_target() const { return small_target_; }
  // True if the id is remembered by the ghost queue (test/analysis hook).
  bool GhostContains(uint64_t id) const;
  // Live ghost entries and their configured bound (invariant-check hooks).
  uint64_t ghost_size() const;
  uint64_t ghost_capacity_entries() const { return GhostCapacityEntries(); }

  // Demotion instrumentation (§6.1): S is the probationary stage.
  void set_demotion_listener(DemotionListener listener) {
    demotion_listener_ = std::move(listener);
  }

 protected:
  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t freq = 0;  // capped counter (the "two bits")
    uint32_t hits = 0;  // uncapped, for instrumentation only
    bool in_small = true;
    uint64_t insert_time = 0;
    uint64_t stage_enter_time = 0;
    uint64_t last_access_time = 0;
    ListHook hook;
  };
  using Queue = IntrusiveList<Entry, &Entry::hook>;

  bool Access(const Request& req) override;
  // Inherited unchanged by S3FifoD: the adaptation hooks it overrides are
  // dispatched virtually inside Access, which BatchLoop's qualified calls
  // do not bypass.
  void AccessBatch(const TraceView& view, uint64_t begin, uint64_t end,
                   uint8_t* hits) override;
  void EnsureFree(uint64_t need);
  // Pops one S tail and routes it to M or G (one Algorithm-1 EVICTS step).
  void EvictFromSmall();
  // Reinserts accessed M tails until one object is evicted (EVICTM).
  void EvictFromMain();

  // Adaptation hooks for S3-FIFO-D.
  virtual void OnMissLookup(uint64_t id) { (void)id; }
  virtual void OnDemotionToGhost(uint64_t id) { (void)id; }
  virtual void OnMainEviction(uint64_t id) { (void)id; }

  void set_small_target(uint64_t target);

 private:
  friend class Cache;  // BatchLoop statically binds the protected Access

  void FireEviction(const Entry& e, bool explicit_delete);
  void NotifyDemotion(const Entry& e, bool promoted);
  void GhostInsert(uint64_t id);
  bool GhostHitAndErase(uint64_t id);
  uint64_t GhostCapacityEntries() const;

  uint64_t small_target_;      // units reserved for S
  uint64_t main_target_;       // capacity - small_target_
  uint32_t move_threshold_;
  uint32_t max_freq_;
  bool small_lru_;
  bool main_lru_;
  bool main_sieve_;
  Entry* sieve_hand_ = nullptr;  // M's hand when main_sieve_ is set

  FlatMap<Entry> table_;
  Queue small_;
  Queue main_;
  uint64_t small_occ_ = 0;
  uint64_t main_occ_ = 0;

  // Exactly one of the two ghost representations is active.
  std::unique_ptr<GhostQueue> ghost_exact_;
  std::unique_ptr<GhostTable> ghost_table_;

  Stats stats_;
  DemotionListener demotion_listener_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_S3FIFO_H_
