// FIFO of (stamp, id) entries with lazy-stale deletion, shared by the exact
// ghost queue (util/ghost_queue.h) and the one-pass MRC engine's queues. The
// owner keeps each id's live stamp elsewhere; an entry is live iff the owner
// still holds its id with its stamp, so deletes and re-inserts only change
// the owner's stamp, and dead entries are skipped at the front or dropped by
// the owner's Compact. The buffer is a power-of-two array addressed by
// monotone absolute indices (an entry sits at abs & mask), so positions stay
// stable until a Compact. Pushes never grow the buffer: owners Reserve.
#ifndef SRC_UTIL_STAMP_RING_H_
#define SRC_UTIL_STAMP_RING_H_

#include <cstdint>
#include <vector>

namespace s3fifo {

template <typename Stamp, typename Id>
class StampRing {
 public:
  struct Entry {
    Stamp stamp;
    Id id;
  };

  // Room for `live_cap` live entries under either compaction discipline in
  // use (compact at size > 2*live + 64, or at size > 2*cap + 16).
  void Reserve(uint64_t live_cap) {
    uint64_t n = 16;
    while (n < 2 * live_cap + 80) {
      n <<= 1;
    }
    if (n > buf_.size()) {
      Resize(n);
    }
  }

  bool empty() const { return head_ == tail_; }
  uint64_t size() const { return tail_ - head_; }
  uint64_t capacity() const { return buf_.size(); }
  uint64_t head_abs() const { return head_; }
  uint64_t tail_abs() const { return tail_; }
  const Entry& front() const { return buf_[head_ & mask_]; }
  const Entry& at_abs(uint64_t abs) const { return buf_[abs & mask_]; }

  void pop_front() { ++head_; }
  void clear() { head_ = tail_ = 0; }

  // Requires size() < capacity().
  void push_back(Stamp stamp, Id id) {
    buf_[tail_ & mask_] = Entry{stamp, id};
    ++tail_;
  }

  // Drops entries failing keep(id, stamp), preserving order. Returns the new
  // absolute index of the first kept entry whose old absolute index was
  // >= track (the sentinel ~0 tracks nothing and maps to ~0).
  template <typename Keep>
  uint64_t Compact(const Keep& keep, uint64_t track = ~uint64_t{0}) {
    uint64_t mapped = ~uint64_t{0};
    uint64_t w = head_;
    for (uint64_t r = head_; r != tail_; ++r) {
      const Entry e = buf_[r & mask_];
      if (keep(e.id, e.stamp)) {
        if (r >= track && mapped == ~uint64_t{0}) {
          mapped = w;
        }
        buf_[w & mask_] = e;
        ++w;
      }
    }
    tail_ = w;
    return mapped;
  }

 private:
  // Moves [head, tail) to the same absolute indices in n > size() slots.
  void Resize(uint64_t n) {
    std::vector<Entry> next(n);
    for (uint64_t r = head_; r != tail_; ++r) {
      next[r & (n - 1)] = buf_[r & mask_];
    }
    buf_.swap(next);
    mask_ = n - 1;
  }

  std::vector<Entry> buf_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;  // absolute index of the oldest entry
  uint64_t tail_ = 0;  // absolute index one past the newest entry
};

}  // namespace s3fifo

#endif  // SRC_UTIL_STAMP_RING_H_
