#include "src/util/ghost_queue.h"

#include <algorithm>

namespace s3fifo {

GhostQueue::GhostQueue(uint64_t capacity) : capacity_(std::max<uint64_t>(capacity, 1)) {}

void GhostQueue::Insert(uint64_t id) {
  bool inserted = false;
  uint64_t* seq = seq_of_.Emplace(id, &inserted);  // stable across the erases below
  if (inserted) {
    // Matches no ring slot, so the make-room evictions cannot pick id itself
    // (a value-initialized 0 would match a stale slot from an earlier seq 0).
    *seq = ~uint64_t{0};
    while (seq_of_.size() > capacity_) {
      EvictOldest();
    }
  }
  *seq = next_seq_;  // any older slot for id becomes stale
  if (fifo_.size() == fifo_.capacity()) {
    fifo_.Reserve(fifo_.size());  // grows lazily, at least doubling
  }
  fifo_.push_back(next_seq_++, id);
  // Bound the ring: stale slots can at most double it before compaction.
  if (fifo_.size() > 2 * capacity_ + 16) {
    fifo_.Compact([this](uint64_t slot_id, uint64_t slot_seq) { return Live(slot_id, slot_seq); });
  }
}

void GhostQueue::Clear() {
  fifo_.clear();
  seq_of_.Clear();
}

void GhostQueue::set_capacity(uint64_t capacity) {
  capacity_ = std::max<uint64_t>(capacity, 1);
  while (seq_of_.size() > capacity_) {
    EvictOldest();
  }
}

void GhostQueue::EvictOldest() {
  while (!fifo_.empty()) {
    const auto [seq, id] = fifo_.front();
    fifo_.pop_front();
    if (seq_of_.EraseIf(id, [seq](uint64_t live) { return live == seq; })) {
      return;  // the slot was live
    }
  }
}

}  // namespace s3fifo
