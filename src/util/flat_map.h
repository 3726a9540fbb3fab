// Open-addressing hash map keyed by uint64_t object ids — the request
// hot-path replacement for node-based std::unordered_map in the policies.
//
// Layout (Swiss-table-style two-array scheme): a contiguous control-byte
// array holds one byte per slot — the low 7 bits of the slot key's hash as a
// tag, or 0x80 for empty — probed 16 bytes at a time with one SIMD compare
// (SSE2/NEON, scalar-on-uint64 SWAR fallback; see src/util/simd_probe.h).
// A parallel slot array holds {key, slab index, low 32 hash bits} triples
// (the hash fills what would be padding), and the values live in a slab pool
// of fixed-size chunks with a LIFO free list.
//
// Probing is linear, group by group, from the key's home slot; deletion is
// backward-shift (displaced successors are pulled into the hole), so probe
// chains stay contiguous and no tombstones accumulate — the first empty
// control byte still terminates every probe, and no rebuild pass is ever
// needed. Slot positions, iteration order, and all observable behavior are
// identical to a per-slot linear-probing map with the same hash; the group
// scan only changes how many candidates are inspected per instruction.
//
// Consequences the policies rely on:
//
//   * value addresses are STABLE — rehashing moves only the control/slot
//     arrays, never a value, so intrusive-list hooks embedded in entries
//     stay valid;
//   * lookups touch the control-byte line (64 slots per cache line) and
//     exactly the candidate slots the tag filter selects, instead of
//     key-comparing every occupied slot on the probe path;
//   * erase returns the slab slot to the free list; the next Emplace reuses
//     it with a freshly value-initialized V.
//
// Not thread-safe. ForEach must not insert or erase.
#ifndef SRC_UTIL_FLAT_MAP_H_
#define SRC_UTIL_FLAT_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/util/hash.h"
#include "src/util/simd_probe.h"

namespace s3fifo {

template <typename V>
class FlatMap {
 public:
  FlatMap() = default;
  ~FlatMap() { Clear(); }

  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Hints the CPU to pull the probe lines for `key` into cache ahead of a
  // Find/Emplace — the simulators issue this a fixed distance ahead of the
  // request being processed so probe misses overlap. Both the control-byte
  // line and the home slot line are fetched (they are separate arrays).
  // No observable effect.
  void Prefetch(uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) {
      const size_t pos = Mix64(key) & Mask();
      __builtin_prefetch(ctrl_.data() + pos);
      __builtin_prefetch(slots_.data() + pos);
    }
#else
    (void)key;
#endif
  }

  V* Find(uint64_t key) {
    const size_t pos = FindSlot(key);
    return pos == kNotFound ? nullptr : EntryAt(slots_[pos].idx);
  }
  const V* Find(uint64_t key) const {
    const size_t pos = FindSlot(key);
    return pos == kNotFound ? nullptr : EntryAt(slots_[pos].idx);
  }
  bool Contains(uint64_t key) const { return FindSlot(key) != kNotFound; }

  // Returns the value for `key`, value-initializing a fresh V on insertion
  // (also when the slab slot is recycled). The pointer stays valid until the
  // key is erased, across any number of rehashes.
  V* Emplace(uint64_t key, bool* inserted = nullptr) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const uint64_t hash = Mix64(key);
    const uint8_t tag = TagOf(hash);
    size_t pos = hash & Mask();
    PrefetchSlots(pos);  // overlap the slot-line miss with the ctrl load
    for (;;) {
      const probe::Group g = probe::LoadGroup(ctrl_.data() + pos);
      const uint32_t empty = probe::MatchEmpty(g);
      // Candidates exclude empty bytes: a SWAR MatchTag false positive may
      // land on an emptied slot whose stale key still equals `key`, and the
      // key compare alone cannot reject that. MatchEmpty is exact in every
      // backend, so the mask restores correctness at one AND.
      for (uint32_t m = probe::MatchTag(g, tag) & ~empty; m != 0; m &= m - 1) {
        const size_t cand = (pos + Ctz(m)) & Mask();
        if (slots_[cand].key == key) {
          if (inserted != nullptr) {
            *inserted = false;
          }
          return EntryAt(slots_[cand].idx);
        }
      }
      if (empty != 0) {
        const size_t target = (pos + Ctz(empty)) & Mask();
        const uint32_t idx = AllocEntry();
        slots_[target] = Slot{key, idx, static_cast<uint32_t>(hash)};
        SetCtrl(target, tag);
        ++size_;
        if (inserted != nullptr) {
          *inserted = true;
        }
        return EntryAt(idx);
      }
      pos = (pos + probe::kGroupWidth) & Mask();
    }
  }

  bool Erase(uint64_t key) {
    return EraseIf(key, [](const V&) { return true; });
  }

  // Erases `key` only if it is present and pred(value) holds, in the one
  // probe that Find followed by Erase would make twice. Returns whether it
  // erased.
  template <typename Pred>
  bool EraseIf(uint64_t key, Pred&& pred) {
    const size_t pos = FindSlot(key);
    if (pos == kNotFound || !pred(*EntryAt(slots_[pos].idx))) {
      return false;
    }
    FreeEntry(slots_[pos].idx);
    ShiftBackFrom(pos);
    --size_;
    return true;
  }

  // Visits every (key, value) pair. Order is deterministic for a given
  // operation history but otherwise unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (ctrl_[i] != probe::kCtrlEmpty) {
        fn(slots_[i].key, *EntryAt(slots_[i].idx));
      }
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (ctrl_[i] != probe::kCtrlEmpty) {
        fn(slots_[i].key, *EntryAt(slots_[i].idx));
      }
    }
  }

  void Reserve(size_t n) {
    size_t want = kMinSlots;
    while (n * 4 > want * 3) {
      want *= 2;
    }
    if (want > slots_.size()) {
      Rehash(want);
    }
  }

  void Clear() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (ctrl_[i] != probe::kCtrlEmpty) {
        EntryAt(slots_[i].idx)->~V();
      }
    }
    slots_.clear();
    ctrl_.clear();
    chunks_.clear();
    free_.clear();
    allocated_ = 0;
    size_ = 0;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  static constexpr size_t kMinSlots = 16;
  static constexpr uint32_t kChunkShift = 10;  // 1024 values per slab chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  // The control array carries kGroupWidth-1 extra bytes mirroring the first
  // kGroupWidth-1 slots, so an unaligned 16-byte group load starting at any
  // slot position wraps around the table without a second load.
  static constexpr size_t kCtrlPad = probe::kGroupWidth - 1;

  // `hash` is the low half of Mix64(key), enough for any home position (a
  // table has far fewer than 2^32 slots): deletion and rehash never rehash.
  struct Slot {
    uint64_t key = 0;
    uint32_t idx = 0;
    uint32_t hash = 0;
  };
  static_assert(sizeof(Slot) == 16, "the hash must fit the slot's padding");

  // A hit costs three dependent lines (ctrl -> slot -> value); issuing the
  // slot-line fetch before the ctrl load runs the first two in parallel,
  // which is most of the old one-array layout's large-table hit latency.
  void PrefetchSlots(size_t pos) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(slots_.data() + pos);
#else
    (void)pos;
#endif
  }

  static int Ctz(uint32_t mask) { return __builtin_ctz(mask); }
  // 7-bit tag from hash bits the slot position (low bits) does not use.
  static uint8_t TagOf(uint64_t hash) { return static_cast<uint8_t>(hash >> 57); }

  size_t Mask() const { return slots_.size() - 1; }

  // Writes a control byte, keeping the wraparound mirror in sync.
  void SetCtrl(size_t i, uint8_t value) {
    ctrl_[i] = value;
    if (i < kCtrlPad) {
      ctrl_[slots_.size() + i] = value;
    }
  }

  V* EntryAt(uint32_t idx) {
    return reinterpret_cast<V*>(chunks_[idx >> kChunkShift].get()) + (idx & (kChunkSize - 1));
  }
  const V* EntryAt(uint32_t idx) const {
    return reinterpret_cast<const V*>(chunks_[idx >> kChunkShift].get()) +
           (idx & (kChunkSize - 1));
  }

  size_t FindSlot(uint64_t key) const {
    if (slots_.empty()) {
      return kNotFound;
    }
    const uint64_t hash = Mix64(key);
    const uint8_t tag = TagOf(hash);
    size_t pos = hash & Mask();
    PrefetchSlots(pos);  // overlap the slot-line miss with the ctrl load
    for (;;) {
      const probe::Group g = probe::LoadGroup(ctrl_.data() + pos);
      const uint32_t empty = probe::MatchEmpty(g);
      // Empty bytes are masked out of the candidate set — a SWAR MatchTag
      // false positive on an emptied slot could otherwise match the slot's
      // stale key (MatchEmpty is exact in every backend).
      for (uint32_t m = probe::MatchTag(g, tag) & ~empty; m != 0; m &= m - 1) {
        const size_t cand = (pos + Ctz(m)) & Mask();
        if (slots_[cand].key == key) {
          return cand;
        }
      }
      // Probe chains are contiguous (backward-shift deletion), so the first
      // empty byte proves the key is absent. A tag match past an empty byte
      // within this group belongs to another chain; the key compare above
      // rejects it, no ordering check needed.
      if (empty != 0) {
        return kNotFound;
      }
      pos = (pos + probe::kGroupWidth) & Mask();
    }
  }

  uint32_t AllocEntry() {
    uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      if ((allocated_ >> kChunkShift) == chunks_.size()) {
        chunks_.emplace_back(new std::byte[sizeof(V) * kChunkSize]);
      }
      idx = allocated_++;
    }
    ::new (static_cast<void*>(EntryAt(idx))) V{};
    return idx;
  }

  void FreeEntry(uint32_t idx) {
    EntryAt(idx)->~V();
    free_.push_back(idx);
  }

  // Backward-shift deletion: pull displaced successors into the hole so every
  // remaining probe chain stays gap-free. Per-slot (erases are far rarer than
  // finds); the control byte travels with its slot.
  void ShiftBackFrom(size_t hole) {
    size_t cur = (hole + 1) & Mask();
    while (ctrl_[cur] != probe::kCtrlEmpty) {
      const size_t ideal = slots_[cur].hash & Mask();
      if (((cur - ideal) & Mask()) >= ((cur - hole) & Mask())) {
        slots_[hole] = slots_[cur];
        SetCtrl(hole, ctrl_[cur]);
        hole = cur;
      }
      cur = (cur + 1) & Mask();
    }
    SetCtrl(hole, probe::kCtrlEmpty);
  }

  void Rehash(size_t new_slots) {
    assert((new_slots & (new_slots - 1)) == 0);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(new_slots, Slot{});
    ctrl_.assign(new_slots + kCtrlPad, probe::kCtrlEmpty);
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_ctrl[i] == probe::kCtrlEmpty) {
        continue;
      }
      size_t pos = old_slots[i].hash & Mask();
      while (ctrl_[pos] != probe::kCtrlEmpty) {
        pos = (pos + 1) & Mask();
      }
      slots_[pos] = old_slots[i];
      SetCtrl(pos, old_ctrl[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;  // slots_.size() + kCtrlPad bytes once allocated
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t allocated_ = 0;
  size_t size_ = 0;
};

}  // namespace s3fifo

#endif  // SRC_UTIL_FLAT_MAP_H_
