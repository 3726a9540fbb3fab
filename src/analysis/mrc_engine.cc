#include "src/analysis/mrc_engine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "src/core/cache_factory.h"
#include "src/util/flat_map.h"
#include "src/util/params.h"
#include "src/util/stamp_ring.h"

namespace s3fifo {
namespace {

constexpr size_t kMaxSizesPerPass = 64;  // one residency bit per grid size

// FIFO queues as lazy-stale rings (util/stamp_ring.h) instead of
// doubly-linked lists: the paper's policies only ever insert at the head and
// pop (or reinsert) at the tail, so a circular buffer of (stamp, object) gives
// the same order with sequential-memory pushes/pops — no per-miss pointer
// surgery into a K-strided link array, which is what blows the cache once the
// grid widens (eviction cost was dominated by DRAM misses on neighbor links).
// An entry is live iff the object's word for this size (below) still carries
// the entry's stamp (and, for S3-FIFO, the right resident/ghost bits);
// deletes/moves just change the word and the dead entry is skipped (and
// eventually compacted) lazily. Every ring is Reserve()d up front for its
// compaction discipline, which keeps every push in bounds.
using EntryRing = StampRing<uint32_t, uint32_t>;

struct Ring {
  EntryRing q;
  uint64_t live = 0;
};

// Per-(object, size) state is ONE 32-bit word: bit 31 is the resident flag,
// policy metadata (clock's ref counter, SIEVE's visited bit, S3-FIFO's
// freq + small-vs-main bit, or its ghost flags while not resident) sits
// below it, and the live sequence stamp fills the low bits. An object's
// words for all K sizes of a pass are contiguous (seq_[oi * stride + k]), so
// the request path gathers the residency mask from their sign bits with one
// or two cache lines, the hit path updates metadata in those same
// already-warm lines, and the eviction loops decide liveness AND read
// metadata with a single scattered load per victim — the only cold line the
// per-size miss work touches. A ring entry is live iff the word's stamp
// field still equals the entry's stamp; everything that kills an object at
// one size either pops its entry outright or rewrites the stamp (a *bump*
// also clears the resident flag and metadata). Stamp fields are
// >= 22 bits and wrap is safe: a dead entry is flushed by the next ring
// compaction, at most ~2*cap + 64 pushes away, which is far fewer than the
// 2^22+ pushes a stamp collision would need (grid capacities are nowhere
// near 2^22 objects).
constexpr uint32_t kResidentBit = 0x80000000u;

// The id -> dense-index mapping is policy- and size-independent, so it is
// built ONCE per OnePassMrc call, for all its policies (InternTrace below),
// instead of probed per request inside every pass. This matters on
// miss-heavy traces: brute force's per-size hash table is capacity-bounded
// and mostly cache-resident, while a one-pass intern map spans the whole
// footprint — probing it per request was the pass's dominant cold miss.
// With dense ids precomputed, the request path reads a sequential uint32
// array (hardware-prefetched) and one perfectly predicted strided words
// line, and every engine can pre-size its state for the exact object count
// instead of growing incrementally.
class EngineCore {
 public:
  explicit EngineCore(size_t num_sizes)
      : grid_mask_(num_sizes >= 64 ? ~0ull : ((1ull << num_sizes) - 1)) {}

  uint64_t grid_mask() const { return grid_mask_; }

  // Residency mask over the pass's sizes: the sign bits of the object's
  // contiguous per-size words.
  static uint64_t GatherMask(const uint32_t* words, size_t n) {
    uint64_t mask = 0;
    for (size_t k = 0; k < n; ++k) {
      mask |= uint64_t{words[k] >> 31} << k;
    }
    return mask;
  }

 private:
  uint64_t grid_mask_;
};

// The trace's ids interned to dense [0, num_objects) in first-sight order.
struct DenseIds {
  std::vector<uint32_t> oi;  // [request index] -> dense object index
  uint32_t num_objects = 0;
};

DenseIds InternTrace(const TraceView& view) {
  DenseIds d;
  const uint64_t n = view.size();
  const Request* reqs = view.AsRequests();
  d.oi.resize(n);
  FlatMap<uint32_t> index;
  for (uint64_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      index.Prefetch(reqs[i + kPrefetchDistance].id);
    }
    bool inserted = false;
    uint32_t* slot = index.Emplace(reqs[i].id, &inserted);
    if (inserted) {
      *slot = d.num_objects++;
    }
    d.oi[i] = *slot;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Per-policy multi-size engines. Each replicates the corresponding
// src/policies implementation for count-based configs: OnMiss(oi, k) is
// Access()'s miss path for size k (evict-until-free, then insert at the
// head), OnHit is the hit path applied to every resident size at once,
// OnDelete is Remove(). Hits are never materialized per size —
// hits_k = measured requests − misses_k.
// ---------------------------------------------------------------------------

class FifoEngine {
 public:
  FifoEngine(const std::vector<uint64_t>& caps, const CacheConfig& /*config*/,
             uint32_t num_objects)
      : core_(caps.size()),
        caps_(caps),
        stride_(caps.size()),
        next_seq_(caps.size(), 0),
        rings_(caps.size()) {
    seq_.assign(size_t{num_objects} * stride_, 0);
    for (size_t k = 0; k < caps.size(); ++k) {
      rings_[k].q.Reserve(caps[k]);
    }
  }

  EngineCore& core() { return core_; }

  uint64_t ResidentMask(uint32_t oi) const {
    return EngineCore::GatherMask(&seq_[size_t{oi} * stride_], stride_);
  }

  void PrefetchWords(uint32_t oi) const { __builtin_prefetch(&seq_[size_t{oi} * stride_]); }

  // Overlap the independent victim-word loads of this request's miss set:
  // DrivePass calls this for every missing size before running the evictions,
  // so the DRAM misses resolve in parallel instead of back to back.
  void PrefetchVictim(uint32_t /*oi*/, int k) const {
    const Ring& r = rings_[k];
    if (r.live >= caps_[k] && !r.q.empty()) {
      __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
    }
  }

  void OnHit(uint32_t /*oi*/, uint64_t /*mask*/) {}

  void OnMiss(uint32_t oi, int k) {
    Ring& r = rings_[k];
    while (r.live + 1 > caps_[k]) {
      const auto [s, v] = r.q.front();
      r.q.pop_front();
      if (!r.q.empty()) {
        __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
      }
      uint32_t& word = seq_[size_t{v} * stride_ + k];
      if ((word & kSeqMask) == s) {
        word = (s + 1) & kSeqMask;  // bump: evicted, entry would go stale
        --r.live;
      }
    }
    const uint32_t s = next_seq_[k];
    next_seq_[k] = (s + 1) & kSeqMask;
    seq_[size_t{oi} * stride_ + k] = s | kResidentBit;
    r.q.push_back(s, oi);
    ++r.live;
    if (r.q.size() > 2 * r.live + 64) {
      r.q.Compact([this, k](uint32_t v, uint32_t es) { return Live(v, k, es); });
    }
  }

  void OnDelete(uint32_t oi, uint64_t mask) {
    while (mask != 0) {
      const int k = std::countr_zero(mask);
      mask &= mask - 1;
      --rings_[k].live;
      uint32_t& word = seq_[size_t{oi} * stride_ + k];
      word = ((word & kSeqMask) + 1) & kSeqMask;  // bump: entry goes stale
    }
  }

 private:
  // Word layout: [resident : 1][stamp : 31]. Entries die only by being
  // popped or by a stamp bump, so the stamp alone decides liveness — the
  // per-size miss work touches exactly one cold line per victim.
  static constexpr uint32_t kSeqMask = 0x7fffffffu;

  bool Live(uint32_t oi, int k, uint32_t s) const {
    return (seq_[size_t{oi} * stride_ + k] & kSeqMask) == s;
  }

  EngineCore core_;
  std::vector<uint64_t> caps_;
  size_t stride_;
  std::vector<uint32_t> seq_;       // [oi * stride + k] packed resident | stamp
  std::vector<uint32_t> next_seq_;  // [k]
  std::vector<Ring> rings_;
};

class ClockEngine {
 public:
  ClockEngine(const std::vector<uint64_t>& caps, const CacheConfig& config, uint32_t num_objects)
      : core_(caps.size()),
        caps_(caps),
        stride_(caps.size()),
        next_seq_(caps.size(), 0),
        rings_(caps.size()) {
    seq_.assign(size_t{num_objects} * stride_, 0);
    const Params params(config.params);
    const uint64_t bits = std::clamp<uint64_t>(params.GetU64("bits", 1), 1, 8);
    max_ref_ = static_cast<uint32_t>((1u << bits) - 1);
    // Word layout: [resident : 1][ref : bits][stamp : 31 - bits].
    seq_bits_ = 31 - static_cast<uint32_t>(bits);
    seq_mask_ = (1u << seq_bits_) - 1;
    ref_one_ = 1u << seq_bits_;
    ref_field_ = max_ref_ << seq_bits_;
    for (size_t k = 0; k < caps.size(); ++k) {
      rings_[k].q.Reserve(caps[k]);
    }
  }

  EngineCore& core() { return core_; }

  uint64_t ResidentMask(uint32_t oi) const {
    return EngineCore::GatherMask(&seq_[size_t{oi} * stride_], stride_);
  }

  void PrefetchWords(uint32_t oi) const { __builtin_prefetch(&seq_[size_t{oi} * stride_]); }

  // Overlap the independent victim-word loads of this request's miss set:
  // DrivePass calls this for every missing size before running the evictions,
  // so the DRAM misses resolve in parallel instead of back to back.
  void PrefetchVictim(uint32_t /*oi*/, int k) const {
    const Ring& r = rings_[k];
    if (r.live >= caps_[k] && !r.q.empty()) {
      __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
    }
  }

  // Branchless over ALL K contiguous words (non-resident words contribute 0),
  // so the compiler vectorizes the saturating ref increment: resident (sign
  // bit) and not yet at max_ref (field compare is exact — max_ref_ fills its
  // field) gate a masked add of ref_one_.
  void OnHit(uint32_t oi, uint64_t /*mask*/) {
    uint32_t* word = &seq_[size_t{oi} * stride_];
    for (size_t k = 0; k < stride_; ++k) {
      const uint32_t gate = (word[k] >> 31) & ((word[k] & ref_field_) != ref_field_ ? 1u : 0u);
      word[k] += gate * ref_one_;
    }
  }

  void OnMiss(uint32_t oi, int k) {
    Ring& r = rings_[k];
    while (r.live + 1 > caps_[k]) {
      // ClockCache::EvictOne: reinsert referenced tails (decrementing),
      // evict the first unreferenced one. Reinsertion keeps the stamp: the
      // popped entry was the object's only live entry, so re-appending the
      // same (stamp, object) pair preserves uniqueness.
      const auto [s, v] = r.q.front();
      r.q.pop_front();
      if (!r.q.empty()) {
        __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
      }
      uint32_t& word = seq_[size_t{v} * stride_ + k];
      if ((word & seq_mask_) != s) {
        continue;  // stale
      }
      if ((word & ref_field_) != 0) {
        word -= ref_one_;
        r.q.push_back(s, v);
      } else {
        word = (s + 1) & seq_mask_;  // bump: evicted
        --r.live;
      }
    }
    const uint32_t s = next_seq_[k];
    next_seq_[k] = (s + 1) & seq_mask_;
    seq_[size_t{oi} * stride_ + k] = s | kResidentBit;  // ref bits reset to 0
    r.q.push_back(s, oi);
    ++r.live;
    if (r.q.size() > 2 * r.live + 64) {
      r.q.Compact([this, k](uint32_t v, uint32_t es) { return Live(v, k, es); });
    }
  }

  void OnDelete(uint32_t oi, uint64_t mask) {
    while (mask != 0) {
      const int k = std::countr_zero(mask);
      mask &= mask - 1;
      --rings_[k].live;
      uint32_t& word = seq_[size_t{oi} * stride_ + k];
      word = ((word & seq_mask_) + 1) & seq_mask_;  // bump: entry goes stale
    }
  }

 private:
  bool Live(uint32_t oi, int k, uint32_t s) const {
    return (seq_[size_t{oi} * stride_ + k] & seq_mask_) == s;
  }

  EngineCore core_;
  std::vector<uint64_t> caps_;
  size_t stride_;
  std::vector<uint32_t> seq_;       // [oi * stride + k] packed resident | ref | stamp
  std::vector<uint32_t> next_seq_;  // [k]
  std::vector<Ring> rings_;
  uint32_t max_ref_ = 1;
  uint32_t seq_bits_ = 30;
  uint32_t seq_mask_ = (1u << 30) - 1;
  uint32_t ref_one_ = 1u << 30;
  uint32_t ref_field_ = 1u << 30;
};

// SIEVE's hand walks the queue tail-to-head, so its ring keeps an absolute
// position per entry (base + offset; base advances when stale fronts pop) and
// the hand is an absolute position instead of an object. Entries never move
// (SIEVE has no reinsertion), which is what makes positions stable.
class SieveEngine {
 public:
  static constexpr uint64_t kNoHand = ~uint64_t{0};

  SieveEngine(const std::vector<uint64_t>& caps, const CacheConfig& /*config*/,
              uint32_t num_objects)
      : core_(caps.size()),
        caps_(caps),
        stride_(caps.size()),
        next_seq_(caps.size(), 0),
        rings_(caps.size()),
        hands_(caps.size(), kNoHand) {
    seq_.assign(size_t{num_objects} * stride_, 0);
    for (size_t k = 0; k < caps.size(); ++k) {
      rings_[k].q.Reserve(caps[k]);
    }
  }

  EngineCore& core() { return core_; }

  uint64_t ResidentMask(uint32_t oi) const {
    return EngineCore::GatherMask(&seq_[size_t{oi} * stride_], stride_);
  }

  void PrefetchWords(uint32_t oi) const { __builtin_prefetch(&seq_[size_t{oi} * stride_]); }

  // Prefetch the word of the entry the hand walk will inspect first.
  void PrefetchVictim(uint32_t /*oi*/, int k) const {
    const Ring& r = rings_[k];
    if (r.live < caps_[k] || r.q.empty()) {
      return;
    }
    const uint64_t base = r.q.head_abs();
    const uint64_t end = r.q.tail_abs();
    const uint64_t pos =
        (hands_[k] == kNoHand || hands_[k] < base || hands_[k] >= end) ? base : hands_[k];
    __builtin_prefetch(&seq_[size_t{r.q.at_abs(pos).id} * stride_ + k]);
  }

  // Branchless over ALL K contiguous words: set visited on resident words
  // (sign bit shifted into the visited position); vectorizes.
  void OnHit(uint32_t oi, uint64_t /*mask*/) {
    uint32_t* word = &seq_[size_t{oi} * stride_];
    for (size_t k = 0; k < stride_; ++k) {
      word[k] |= (word[k] >> 31) << 30;
    }
  }

  void OnMiss(uint32_t oi, int k) {
    Ring& r = rings_[k];
    while (r.live + 1 > caps_[k]) {
      // Drop stale fronts so a wrap lands on the true tail.
      while (!r.q.empty() && !Live(r.q.front().id, k, r.q.front().stamp)) {
        r.q.pop_front();
      }
      if (r.live == 0) {
        break;  // empty queue; unreachable while live >= cap >= 1
      }
      const uint64_t base = r.q.head_abs();
      const uint64_t end = r.q.tail_abs();
      // SieveCache::EvictOne: walk the hand toward the head clearing
      // visited bits, wrapping to the tail past the head.
      uint64_t pos =
          (hands_[k] == kNoHand || hands_[k] < base || hands_[k] >= end) ? base : hands_[k];
      for (;;) {
        if (pos >= end) {
          pos = base;
        }
        const auto [es, ev] = r.q.at_abs(pos);
        const uint64_t nxt = pos + 1 >= end ? base : pos + 1;
        __builtin_prefetch(&seq_[size_t{r.q.at_abs(nxt).id} * stride_ + k]);
        uint32_t& word = seq_[size_t{ev} * stride_ + k];
        if ((word & kSeqMask) != es) {
          ++pos;  // stale
          continue;
        }
        if ((word & kVisitedBit) != 0) {
          word &= ~kVisitedBit;
          ++pos;
          continue;
        }
        --r.live;
        word = (es + 1) & kSeqMask;  // bump: evicted, the in-ring entry dies
        // RemoveEntry advances the hand to the adjacent live entry toward
        // the head; parking on the (possibly stale) successor is equivalent
        // — stale entries never come back to life and the next walk skips
        // them with no side effects — and avoids a serial scan of cold
        // per-size words here.
        hands_[k] = pos + 1 < end ? pos + 1 : kNoHand;
        break;
      }
    }
    const uint32_t s = next_seq_[k];
    next_seq_[k] = (s + 1) & kSeqMask;
    seq_[size_t{oi} * stride_ + k] = s | kResidentBit;  // visited bit reset to 0
    r.q.push_back(s, oi);
    ++r.live;
    if (r.q.size() > 2 * r.live + 64) {
      hands_[k] = r.q.Compact([this, k](uint32_t v, uint32_t es) { return Live(v, k, es); },
                              hands_[k]);
    }
  }

  void OnDelete(uint32_t oi, uint64_t mask) {
    while (mask != 0) {
      const int k = std::countr_zero(mask);
      mask &= mask - 1;
      --rings_[k].live;
      uint32_t& word = seq_[size_t{oi} * stride_ + k];
      word = ((word & kSeqMask) + 1) & kSeqMask;  // bump: entry goes stale
    }
  }

 private:
  // Word layout: [resident : 1][visited : 1][stamp : 30]. Evictions bump the
  // stamp (the evicted entry stays in the ring until the hand or a
  // compaction passes it), so the walk's liveness test is the stamp compare
  // alone — one cold line per walk step.
  static constexpr uint32_t kVisitedBit = 0x40000000u;
  static constexpr uint32_t kSeqMask = 0x3fffffffu;

  bool Live(uint32_t oi, int k, uint32_t s) const {
    return (seq_[size_t{oi} * stride_ + k] & kSeqMask) == s;
  }

  EngineCore core_;
  std::vector<uint64_t> caps_;
  size_t stride_;
  std::vector<uint32_t> seq_;       // [oi * stride + k] packed visited | stamp
  std::vector<uint32_t> next_seq_;  // [k]
  std::vector<Ring> rings_;
  std::vector<uint64_t> hands_;  // [size] absolute position, kNoHand = "use tail"
};

// S3-FIFO (and, with adaptive=true, S3-FIFO-D): small/main/ghost per size.
// Replicates S3FifoCache::{Access, EnsureFree, EvictFromSmall, EvictFromMain,
// Remove} plus S3FifoDCache::{OnMissLookup, MaybeRebalance} for count-based
// configs with ghost_type=exact and plain FIFO queue types.
//
// The ghosts live in the words too: an object in any ghost is not resident
// (a miss leaves both S3-FIFO-D shadows, a ghost hit leaves G, before the
// object is pushed), so a non-resident word flags G and the two shadows in
// bits 28-30, and each ghost is a ring of (stamp, object) checked against
// the word. A demotion enters G and the small-evicted shadow under one fresh
// stamp, a main eviction enters the main-evicted shadow under another, no
// entry is ever refreshed, and a ghost eviction clears only its own flag.
// The ghost check reads the words line the request already prefetched.
class S3FifoEngine {
 public:
  S3FifoEngine(const std::vector<uint64_t>& caps, const CacheConfig& config, bool adaptive,
               uint32_t num_objects)
      : core_(caps.size()),
        adaptive_(adaptive),
        stride_(caps.size()),
        next_seq_(caps.size(), 0),
        small_(caps.size()),
        main_(caps.size()),
        ghost_(caps.size()),
        small_ev_(adaptive ? caps.size() : 0),
        main_ev_(adaptive ? caps.size() : 0) {
    seq_.assign(size_t{num_objects} * stride_, 0);
    const Params params(config.params);
    const double small_ratio = std::clamp(params.GetDouble("small_ratio", 0.1), 0.001, 0.999);
    move_threshold_ = static_cast<uint32_t>(
        std::clamp<uint64_t>(params.GetU64("move_to_main_threshold", 2), 1, 16));
    max_freq_ =
        static_cast<uint32_t>(std::clamp<uint64_t>(params.GetU64("max_freq", 3), 1, 255));
    // Word layout, resident:     [1][in_small : 1][freq : fb][stamp]
    //              not resident: [0][G : 1][small_ev : 1][main_ev : 1][stamp]
    // fb is just wide enough for max_freq; the stamp stops below bit 28 so
    // the ghost flags never overlap it (>= 22 bits at max_freq=255). All of
    // a size's rings share one stamp counter.
    const uint32_t fb = static_cast<uint32_t>(std::bit_width(max_freq_));
    seq_bits_ = std::min(30 - fb, 28u);
    seq_mask_ = (1u << seq_bits_) - 1;
    freq_one_ = 1u << seq_bits_;
    freq_mask_ = (1u << fb) - 1;
    freq_field_ = freq_mask_ << seq_bits_;
    const double ghost_ratio = params.GetDouble("ghost_ratio", 0.9);
    const double adapt_ghost_ratio = params.GetDouble("adapt_ghost_ratio", 0.05);
    const uint64_t min_hits = params.GetU64("adapt_min_hits", 100);
    const double imbalance = params.GetDouble("adapt_imbalance", 2.0);
    const double step_ratio = params.GetDouble("adapt_step_ratio", 0.001);

    per_.resize(caps.size());
    for (size_t k = 0; k < caps.size(); ++k) {
      const uint64_t cap = caps[k];
      PerSize& s = per_[k];
      s.cap = cap;
      s.small_target = std::max<uint64_t>(static_cast<uint64_t>(cap * small_ratio), 1);
      if (s.small_target >= cap) {
        s.small_target = cap > 1 ? cap - 1 : 1;
      }
      s.main_target = cap - s.small_target;
      small_[k].q.Reserve(cap);
      main_[k].q.Reserve(cap);
      // Count-based config: ghost entries scale with the capacity itself.
      ghost_[k].Init(std::max<uint64_t>(static_cast<uint64_t>(cap * ghost_ratio), 1), kGhostBit);
      if (adaptive_) {
        const uint64_t shadow =
            std::max<uint64_t>(static_cast<uint64_t>(cap * adapt_ghost_ratio), 1);
        small_ev_[k].Init(shadow, kSmallEvBit);
        main_ev_[k].Init(shadow, kMainEvBit);
        s.min_hits = min_hits;
        s.imbalance = imbalance;
        s.step = std::max<uint64_t>(static_cast<uint64_t>(cap * step_ratio), 1);
      }
    }
  }

  EngineCore& core() { return core_; }

  uint64_t ResidentMask(uint32_t oi) const {
    return EngineCore::GatherMask(&seq_[size_t{oi} * stride_], stride_);
  }

  void PrefetchWords(uint32_t oi) const { __builtin_prefetch(&seq_[size_t{oi} * stride_]); }

  // Prefetch the word of the queue head that EnsureFree would evict from
  // first; a demotion rewrites that same word.
  void PrefetchVictim(uint32_t /*oi*/, int k) const {
    const PerSize& s = per_[k];
    if (small_[k].live + main_[k].live < s.cap) {
      return;
    }
    const bool from_small =
        (small_[k].live > s.small_target && small_[k].live > 0) || main_[k].live == 0;
    const Ring& r = from_small ? small_[k] : main_[k];
    if (!r.q.empty()) {
      __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
    }
  }

  // Branchless over ALL K contiguous words; vectorizes. max_freq need not
  // fill the field (e.g. max_freq=5 in a 3-bit field), so the saturation
  // gate compares the value, not the field bits.
  void OnHit(uint32_t oi, uint64_t /*mask*/) {
    uint32_t* word = &seq_[size_t{oi} * stride_];
    for (size_t k = 0; k < stride_; ++k) {
      const uint32_t gate =
          (word[k] >> 31) & (((word[k] >> seq_bits_) & freq_mask_) < max_freq_ ? 1u : 0u);
      word[k] += gate * freq_one_;
    }
  }

  void OnMiss(uint32_t oi, int k) {
    PerSize& s = per_[k];
    uint32_t& word = seq_[size_t{oi} * stride_ + k];  // not resident at k
    if (adaptive_) {
      // OnMissLookup fires before any eviction, as in Access().
      s.small_ghost_hits += Leave(small_ev_[k], word);
      s.main_ghost_hits += Leave(main_ev_[k], word);
      MaybeRebalance(s);
    }
    EnsureFree(s, k);  // may evict oi's own G entry
    if (Leave(ghost_[k], word)) {
      Push(main_[k], oi, k, /*in_small=*/false);
    } else {
      Push(small_[k], oi, k, /*in_small=*/true);
    }
  }

  void OnDelete(uint32_t oi, uint64_t mask) {
    while (mask != 0) {
      const int k = std::countr_zero(mask);
      mask &= mask - 1;
      uint32_t& word = seq_[size_t{oi} * stride_ + k];
      if ((word & kInSmallBit) != 0) {
        --small_[k].live;
      } else {
        --main_[k].live;
      }
      word = ((word & seq_mask_) + 1) & seq_mask_;  // bump: entry goes stale
      // S3FifoCache::Remove never touches the ghost queues.
    }
  }

 private:
  struct PerSize {
    uint64_t cap = 0;
    uint64_t small_target = 0;
    uint64_t main_target = 0;
    // S3-FIFO-D adaptation state.
    uint64_t small_ghost_hits = 0;
    uint64_t main_ghost_hits = 0;
    uint64_t min_hits = 0;
    double imbalance = 2.0;
    uint64_t step = 1;
  };

  // One size's ghost: at most `cap` live entries, members marked by `flag`
  // in their words, compacted past 2*cap + 16 entries (GhostQueue's rule).
  struct GhostRing {
    void Init(uint64_t capacity, uint32_t member_flag) {
      cap = capacity;
      flag = member_flag;
      q.Reserve(cap);
    }
    EntryRing q;
    uint64_t cap = 1;
    uint64_t live = 0;
    uint32_t flag = 0;
  };

  // Resident words: bit 30 marks S membership. Non-resident words: bits
  // 28-30 mark ghost membership.
  static constexpr uint32_t kInSmallBit = 0x40000000u;
  static constexpr uint32_t kGhostBit = 0x40000000u;
  static constexpr uint32_t kSmallEvBit = 0x20000000u;
  static constexpr uint32_t kMainEvBit = 0x10000000u;

  uint32_t NextStamp(int k) {
    const uint32_t s = next_seq_[k];
    next_seq_[k] = (s + 1) & seq_mask_;
    return s;
  }

  // An object is in at most one of small/main per size and all of a size's
  // rings draw stamps from one counter, so a resident word with a matching
  // stamp identifies the object's unique live small/main entry. Entries die
  // only by being popped (eviction, promotion) or by a word rewrite.
  bool Live(uint32_t oi, int k, uint32_t s) const {
    return (seq_[size_t{oi} * stride_ + k] & (kResidentBit | seq_mask_)) == (kResidentBit | s);
  }

  // A ghost entry is live iff the word is not resident, carries the ghost's
  // flag and carries the entry's stamp.
  bool GhostLive(const GhostRing& g, uint32_t oi, int k, uint32_t s) const {
    return (seq_[size_t{oi} * stride_ + k] & (kResidentBit | g.flag | seq_mask_)) == (g.flag | s);
  }

  void Push(Ring& r, uint32_t oi, int k, bool in_small) {
    const uint32_t s = NextStamp(k);
    // freq resets to 0; ghost flags are gone with the resident bit set
    seq_[size_t{oi} * stride_ + k] = s | kResidentBit | (in_small ? kInSmallBit : 0);
    r.q.push_back(s, oi);
    ++r.live;
    if (r.q.size() > 2 * r.live + 64) {
      r.q.Compact([this, k](uint32_t v, uint32_t es) { return Live(v, k, es); });
    }
  }

  // Enters one ghost under stamp s, which the caller has written into the
  // object's word with the ghost's flag; evicts the oldest first when full.
  void GhostPush(GhostRing& g, uint32_t oi, int k, uint32_t s) {
    while (g.live >= g.cap) {
      EvictGhost(g, k);
    }
    g.q.push_back(s, oi);
    ++g.live;
    if (g.q.size() > 2 * g.cap + 16) {
      g.q.Compact([this, &g, k](uint32_t v, uint32_t es) { return GhostLive(g, v, k, es); });
    }
  }

  void EvictGhost(GhostRing& g, int k) {
    while (!g.q.empty()) {
      const auto [es, v] = g.q.front();
      g.q.pop_front();
      if (!g.q.empty()) {
        __builtin_prefetch(&seq_[size_t{g.q.front().id} * stride_ + k]);
      }
      if (GhostLive(g, v, k, es)) {
        seq_[size_t{v} * stride_ + k] &= ~g.flag;
        --g.live;
        return;
      }
    }
  }

  // Ghost hit on a non-resident word: drops the object from that ghost.
  static bool Leave(GhostRing& g, uint32_t& word) {
    if ((word & g.flag) == 0) {
      return false;
    }
    word &= ~g.flag;
    --g.live;  // the ring entry goes stale via the flag check
    return true;
  }

  void EnsureFree(PerSize& s, int k) {
    while (small_[k].live + main_[k].live + 1 > s.cap) {
      if ((small_[k].live > s.small_target && small_[k].live > 0) || main_[k].live == 0) {
        EvictFromSmall(s, k);
      } else {
        EvictFromMain(s, k);
      }
      if (small_[k].live == 0 && main_[k].live == 0) {
        return;
      }
    }
  }

  void EvictFromSmall(PerSize& s, int k) {
    Ring& r = small_[k];
    for (;;) {
      if (r.q.empty()) {
        return;  // mirrors the tail == end() guard
      }
      const auto [es, t] = r.q.front();
      r.q.pop_front();
      if (!r.q.empty()) {
        __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
      }
      uint32_t& word = seq_[size_t{t} * stride_ + k];
      if (!Live(t, k, es)) {
        continue;  // stale
      }
      --r.live;
      if (((word >> seq_bits_) & freq_mask_) >= move_threshold_) {
        // Promote to M; access bits are cleared during the move (§4.1).
        Push(main_[k], t, k, /*in_small=*/false);
        while (main_[k].live > s.main_target) {
          EvictFromMain(s, k);
        }
      } else {
        // Demote to G (and S3-FIFO-D's small-evicted shadow).
        const uint32_t g = NextStamp(k);
        word = g | kGhostBit | (adaptive_ ? kSmallEvBit : 0);
        GhostPush(ghost_[k], t, k, g);
        if (adaptive_) {
          GhostPush(small_ev_[k], t, k, g);
        }
      }
      return;
    }
  }

  void EvictFromMain(PerSize& /*s*/, int k) {
    // FIFO-reinsertion: terminates because every reinsertion decrements freq.
    Ring& r = main_[k];
    for (;;) {
      if (r.q.empty()) {
        return;
      }
      const auto [es, t] = r.q.front();
      r.q.pop_front();
      if (!r.q.empty()) {
        __builtin_prefetch(&seq_[size_t{r.q.front().id} * stride_ + k]);
      }
      uint32_t& word = seq_[size_t{t} * stride_ + k];
      if (!Live(t, k, es)) {
        continue;  // stale
      }
      if ((word & freq_field_) != 0) {  // freq > 0
        word -= freq_one_;
        r.q.push_back(es, t);  // reinsertion keeps the stamp
      } else {
        --r.live;
        if (adaptive_) {
          const uint32_t g = NextStamp(k);
          word = g | kMainEvBit;
          GhostPush(main_ev_[k], t, k, g);
        } else {
          word = (es + 1) & seq_mask_;  // bump: evicted
        }
        return;
      }
    }
  }

  void MaybeRebalance(PerSize& s) {
    if (s.small_ghost_hits + s.main_ghost_hits <= s.min_hits) {
      return;
    }
    const double hi = static_cast<double>(std::max(s.small_ghost_hits, s.main_ghost_hits));
    const double lo = static_cast<double>(std::min(s.small_ghost_hits, s.main_ghost_hits));
    if (hi < s.imbalance * std::max(lo, 1.0)) {
      return;
    }
    uint64_t target;
    if (s.small_ghost_hits > s.main_ghost_hits) {
      target = std::min<uint64_t>(s.small_target + s.step, s.cap - 1);
    } else {
      target = s.small_target > s.step ? s.small_target - s.step : 1;
    }
    // set_small_target's clamp, including its capacity-1 guard.
    s.small_target = s.cap > 1 ? std::clamp<uint64_t>(target, 1, s.cap - 1) : 1;
    s.main_target = s.cap - s.small_target;
    s.small_ghost_hits = 0;
    s.main_ghost_hits = 0;
  }

  EngineCore core_;
  bool adaptive_;
  uint32_t move_threshold_ = 2;
  uint32_t max_freq_ = 3;
  uint32_t seq_bits_ = 28;
  uint32_t seq_mask_ = (1u << 28) - 1;
  uint32_t freq_one_ = 1u << 28;
  uint32_t freq_mask_ = 3;
  uint32_t freq_field_ = 3u << 28;
  size_t stride_;
  std::vector<uint32_t> seq_;  // [oi * stride + k] packed word, layout above
  std::vector<uint32_t> next_seq_;  // [k], shared by all rings of a size
  std::vector<Ring> small_;
  std::vector<Ring> main_;
  std::vector<GhostRing> ghost_;
  std::vector<GhostRing> small_ev_;  // S3-FIFO-D shadow ghosts (empty unless adaptive)
  std::vector<GhostRing> main_ev_;
  std::vector<PerSize> per_;
};

// LRU is a stack algorithm (Mattson et al.): every size's cache is a prefix
// of one recency stack, so a request hits at size k iff fewer than the
// prefix length of more recently used objects sit above it. The stack is a
// Fenwick tree of marks over access times, one live mark per object at its
// last access, so an object's depth is the count of marks after its own, at
// O(log n) per request for the whole grid.
//
// Deletes break plain Mattson: LruCache::Remove leaves a free slot, and an
// object pushed out of the prefix by an earlier miss does not come back (at
// C=1, `a, b, del b, a` misses the second a). So each size keeps its prefix
// length limit_k = C_k - h_k, where h_k counts the holes: a delete of an
// object resident at size k opens one, and a miss at size k fills one
// instead of evicting. A delete also drops the object's mark. An object
// deleted while resident at no size keeps its mark; it has then been evicted
// at every size, so every size is full, and a mark below every prefix never
// enters one — it only deepens objects that are already out of every cache.
class LruEngine {
 public:
  LruEngine(const std::vector<uint64_t>& caps, uint64_t num_requests, uint32_t num_objects)
      : core_(caps.size()),
        caps_(caps),
        limit_(caps),
        tree_(num_requests + 1, 0),
        last_(num_objects, kUnmarked) {}

  EngineCore& core() { return core_; }

  uint64_t ResidentMask(uint32_t oi) const {
    const uint32_t at = last_[oi];
    if (at == kUnmarked) {
      return 0;
    }
    uint64_t newer = marks_;  // marks after `at`: the object's depth in the stack
    for (uint32_t i = at; i > 0; i &= i - 1) {
      newer -= tree_[i];
    }
    uint64_t mask = 0;
    for (size_t k = 0; k < limit_.size(); ++k) {
      mask |= uint64_t{newer < limit_[k]} << k;
    }
    return mask;
  }

  void PrefetchWords(uint32_t oi) const { __builtin_prefetch(&last_[oi]); }
  void PrefetchVictim(uint32_t /*oi*/, int /*k*/) const {}
  void OnHit(uint32_t /*oi*/, uint64_t /*mask*/) {}

  // Evicting the prefix's last object is implicit: the object moves to the
  // top in OnAccess. Only a hole changes the prefix length.
  void OnMiss(uint32_t /*oi*/, int k) {
    if (limit_[k] < caps_[k]) {
      ++limit_[k];
    }
  }

  void OnDelete(uint32_t oi, uint64_t mask) {
    Add(last_[oi], -1);
    last_[oi] = kUnmarked;
    for (; mask != 0; mask &= mask - 1) {
      --limit_[std::countr_zero(mask)];
    }
  }

  // Once per non-delete request, after the per-size work: the object's mark
  // moves to the current time, the top of the stack.
  void OnAccess(uint32_t oi) {
    if (last_[oi] != kUnmarked) {
      Add(last_[oi], -1);
    }
    last_[oi] = ++now_;
    Add(now_, +1);
  }

 private:
  static constexpr uint32_t kUnmarked = 0;  // times start at 1

  void Add(uint32_t at, int delta) {
    marks_ += delta;
    for (size_t i = at; i < tree_.size(); i += i & -i) {
      tree_[i] += delta;
    }
  }

  EngineCore core_;
  std::vector<uint64_t> caps_;
  std::vector<uint64_t> limit_;  // [k] prefix length: capacity minus open holes
  std::vector<uint32_t> tree_;   // Fenwick tree over access times 1..n
  std::vector<uint32_t> last_;   // [oi] time of the live mark, kUnmarked if none
  uint64_t marks_ = 0;
  uint32_t now_ = 0;
};

// The shared traversal: per-size work only on the miss set, no hash probe
// at all (ids were interned up front by InternTrace). Mirrors the metric
// rules of MultiSimulate's block loop exactly (deletes and warmup excluded
// from the counts).
// The dense-id array is read sequentially, so the only scattered line the
// request path touches — the object's per-size words — is prefetched
// kPrefetchDistance ahead with a perfectly known address.
template <typename Engine>
std::vector<SimResult> DrivePass(const TraceView& view, const uint32_t* dense, Engine& engine,
                                 const std::vector<uint64_t>& caps, uint64_t warmup_requests) {
  const size_t num_sizes = caps.size();
  std::vector<uint64_t> misses(num_sizes, 0);
  std::vector<uint64_t> bytes_missed(num_sizes, 0);
  uint64_t measured = 0;
  uint64_t bytes_requested = 0;
  const uint64_t grid_mask = engine.core().grid_mask();
  const uint64_t n = view.size();
  const Request* reqs = view.AsRequests();
  for (uint64_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      engine.PrefetchWords(dense[i + kPrefetchDistance]);
    }
    const uint32_t oi = dense[i];
    const uint64_t mask = engine.ResidentMask(oi);
    if (reqs[i].op == OpType::kDelete) {
      if (mask != 0) {
        engine.OnDelete(oi, mask);
      }
      continue;
    }
    const bool measure = i >= warmup_requests;
    const uint32_t size = reqs[i].size;
    if (measure) {
      ++measured;
      bytes_requested += size;
    }
    if (mask != 0) {
      engine.OnHit(oi, mask);
    }
    uint64_t miss = ~mask & grid_mask;
    for (uint64_t m = miss; m != 0; m &= m - 1) {
      engine.PrefetchVictim(oi, std::countr_zero(m));
    }
    while (miss != 0) {
      const int k = std::countr_zero(miss);
      miss &= miss - 1;
      if (measure) {
        ++misses[k];
        bytes_missed[k] += size;
      }
      engine.OnMiss(oi, k);
    }
    if constexpr (requires { engine.OnAccess(oi); }) {
      engine.OnAccess(oi);
    }
  }
  std::vector<SimResult> results(num_sizes);
  for (size_t k = 0; k < num_sizes; ++k) {
    results[k].requests = measured;
    results[k].misses = misses[k];
    results[k].hits = measured - misses[k];
    results[k].bytes_requested = bytes_requested;
    results[k].bytes_missed = bytes_missed[k];
  }
  return results;
}

std::vector<SimResult> RunChunk(const TraceView& view, const DenseIds& dense,
                                const std::string& policy, const std::vector<uint64_t>& caps,
                                const CacheConfig& config, uint64_t warmup_requests) {
  if (policy == "fifo") {
    FifoEngine engine(caps, config, dense.num_objects);
    return DrivePass(view, dense.oi.data(), engine, caps, warmup_requests);
  }
  if (policy == "clock") {
    ClockEngine engine(caps, config, dense.num_objects);
    return DrivePass(view, dense.oi.data(), engine, caps, warmup_requests);
  }
  if (policy == "sieve") {
    SieveEngine engine(caps, config, dense.num_objects);
    return DrivePass(view, dense.oi.data(), engine, caps, warmup_requests);
  }
  if (policy == "s3fifo" || policy == "s3fifo-d") {
    S3FifoEngine engine(caps, config, policy == "s3fifo-d", dense.num_objects);
    return DrivePass(view, dense.oi.data(), engine, caps, warmup_requests);
  }
  if (policy == "lru") {
    LruEngine engine(caps, view.size(), dense.num_objects);
    return DrivePass(view, dense.oi.data(), engine, caps, warmup_requests);
  }
  throw std::invalid_argument("one-pass MRC engine does not support policy '" + policy + "'");
}

}  // namespace

MrcMode ParseMrcMode(const std::string& name) {
  if (name == "onepass") {
    return MrcMode::kAuto;
  }
  if (name == "brute") {
    return MrcMode::kBrute;
  }
  throw std::invalid_argument("unknown MRC mode '" + name + "' (expected onepass|brute)");
}

bool MrcEngineSupports(const std::string& policy, const CacheConfig& config) {
  if (!config.count_based) {
    return false;  // byte-sized objects break the one-slot-per-object layout
  }
  if (policy == "fifo" || policy == "clock" || policy == "sieve" || policy == "lru") {
    return true;
  }
  if (policy == "s3fifo" || policy == "s3fifo-d") {
    const Params params(config.params);
    return params.GetString("ghost_type", "exact") == "exact" &&
           !params.GetBool("small_lru", false) && !params.GetBool("main_lru", false) &&
           !params.GetBool("main_sieve", false);
  }
  return false;
}

MrcCurve OnePassMrc(const TraceView& view, const std::string& policy,
                    const std::vector<uint64_t>& sizes, const CacheConfig& base_config,
                    uint64_t warmup_requests) {
  return std::move(OnePassMrc(view, {{policy, base_config}}, sizes, warmup_requests)[0]);
}

std::vector<MrcCurve> OnePassMrc(const TraceView& view, const std::vector<MrcPolicy>& policies,
                                 const std::vector<uint64_t>& sizes,
                                 uint64_t warmup_requests) {
  std::vector<MrcCurve> curves;
  for (const MrcPolicy& p : policies) {
    if (!MrcEngineSupports(p.policy, p.config)) {
      throw std::invalid_argument("one-pass MRC engine does not support policy '" + p.policy +
                                  "' with params '" + p.config.params + "'");
    }
    curves.push_back({sizes, {}, p.policy});
  }
  if (policies.empty() || sizes.empty()) {
    return curves;
  }
  for (const uint64_t size : sizes) {
    if (size == 0) {
      throw std::invalid_argument("MRC size grid entries must be > 0");
    }
  }

  // Deduplicate: each distinct capacity is simulated once per pass; the
  // requested order (and any duplicates) is restored from the result table.
  std::vector<uint64_t> unique_sizes = sizes;
  std::sort(unique_sizes.begin(), unique_sizes.end());
  unique_sizes.erase(std::unique(unique_sizes.begin(), unique_sizes.end()), unique_sizes.end());

  const DenseIds dense = InternTrace(view);
  for (size_t pi = 0; pi < policies.size(); ++pi) {
    const auto& [policy, config] = policies[pi];
    std::vector<SimResult> by_unique;
    by_unique.reserve(unique_sizes.size());
    for (size_t start = 0; start < unique_sizes.size(); start += kMaxSizesPerPass) {
      const size_t end = std::min(unique_sizes.size(), start + kMaxSizesPerPass);
      const std::vector<uint64_t> chunk(unique_sizes.begin() + start, unique_sizes.begin() + end);
      std::vector<SimResult> chunk_results =
          RunChunk(view, dense, policy, chunk, config, warmup_requests);
      by_unique.insert(by_unique.end(), chunk_results.begin(), chunk_results.end());
    }
    for (const uint64_t size : sizes) {
      const auto at = std::lower_bound(unique_sizes.begin(), unique_sizes.end(), size);
      curves[pi].results.push_back(by_unique[at - unique_sizes.begin()]);
    }
  }
  return curves;
}

std::vector<SimResult> ComputeMrcResults(const TraceView& view, const std::string& policy,
                                         const std::vector<uint64_t>& sizes,
                                         const CacheConfig& base_config,
                                         uint64_t warmup_requests) {
  std::vector<SimResult> results;
  results.reserve(sizes.size());
  SimOptions options;
  options.warmup_requests = warmup_requests;
  for (uint64_t size : sizes) {
    CacheConfig config = base_config;
    config.capacity = size;
    auto cache = CreateCache(policy, config);
    results.push_back(Simulate(view, *cache, options));
  }
  return results;
}

}  // namespace s3fifo
