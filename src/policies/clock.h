// CLOCK / FIFO-Reinsertion / Second Chance — three implementations of the
// same algorithm (paper §3, footnote 1). We implement the FIFO-Reinsertion
// form: a FIFO queue where the victim is reinserted at the head when its
// reference counter is non-zero (decrementing it).
//
// Params: bits=<k>  — counter cap is 2^k - 1 (default 1 bit, the classic
// second-chance CLOCK).
#ifndef SRC_POLICIES_CLOCK_H_
#define SRC_POLICIES_CLOCK_H_

#include "src/core/cache.h"
#include "src/util/flat_map.h"
#include "src/util/intrusive_list.h"

namespace s3fifo {

class ClockCache : public Cache {
 public:
  explicit ClockCache(const CacheConfig& config);

  bool Contains(uint64_t id) const override;
  void Remove(uint64_t id) override;
  std::string Name() const override { return "clock"; }
  void Prefetch(uint64_t id) const override { table_.Prefetch(id); }

 protected:
  bool Access(const Request& req) override;
  void AccessBatch(const TraceView& view, uint64_t begin, uint64_t end,
                   uint8_t* hits) override;

 private:
  friend class Cache;  // BatchLoop statically binds the protected Access
  struct Entry {
    uint64_t id = 0;
    uint64_t size = 1;
    uint32_t hits = 0;
    uint32_t ref = 0;  // capped reference counter
    uint64_t insert_time = 0;
    uint64_t last_access_time = 0;
    ListHook hook;
  };

  void EvictOne();
  void RemoveEntry(Entry* entry, bool explicit_delete);

  uint32_t max_ref_;
  FlatMap<Entry> table_;
  IntrusiveList<Entry, &Entry::hook> queue_;
};

}  // namespace s3fifo

#endif  // SRC_POLICIES_CLOCK_H_
