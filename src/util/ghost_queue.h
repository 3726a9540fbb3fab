// Exact ghost FIFO queue: remembers the ids (not the data) of the last
// `capacity` evicted objects. This is the precise reference structure; the
// space-efficient fingerprint variant from paper §4.2 is GhostTable.
//
// Re-inserting an id refreshes its position (moves it to the head); each id
// occupies at most one live slot. Layout: a FlatMap from id to its live seq
// plus a StampRing of (seq, id), oldest first. A ring slot is live iff the
// map still holds its id with its seq; Remove and refresh only touch the map,
// and stale slots are skipped when they reach the front or dropped by a
// compaction once the ring exceeds 2*capacity + 16 slots.
#ifndef SRC_UTIL_GHOST_QUEUE_H_
#define SRC_UTIL_GHOST_QUEUE_H_

#include <cstdint>

#include "src/util/flat_map.h"
#include "src/util/stamp_ring.h"

namespace s3fifo {

class GhostQueue {
 public:
  explicit GhostQueue(uint64_t capacity);

  // Inserts id at the head (refreshing its position if already present);
  // evicts the oldest live entry if the queue is full.
  void Insert(uint64_t id);
  bool Contains(uint64_t id) const { return seq_of_.Contains(id); }
  // Removes id (e.g. on a ghost hit); returns whether it was present.
  bool Remove(uint64_t id) { return seq_of_.Erase(id); }
  void Clear();

  uint64_t size() const { return static_cast<uint64_t>(seq_of_.size()); }
  uint64_t capacity() const { return capacity_; }
  // Shrinking evicts the oldest entries immediately.
  void set_capacity(uint64_t capacity);

 private:
  bool Live(uint64_t id, uint64_t seq) const {
    const uint64_t* live = seq_of_.Find(id);
    return live != nullptr && *live == seq;
  }
  void EvictOldest();

  uint64_t capacity_;
  uint64_t next_seq_ = 0;
  StampRing<uint64_t, uint64_t> fifo_;  // (seq, id), oldest first
  FlatMap<uint64_t> seq_of_;            // id -> live seq
};

}  // namespace s3fifo

#endif  // SRC_UTIL_GHOST_QUEUE_H_
