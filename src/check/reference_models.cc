#include "src/check/reference_model.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "src/util/params.h"

namespace s3fifo {
namespace check {
namespace {

constexpr size_t kNpos = ~size_t{0};

// One resident object. Queues are plain vectors, index 0 = oldest ("tail" of
// the intrusive lists in src/policies/), back = newest ("head").
struct RefEntry {
  uint64_t id = 0;
  uint64_t size = 1;
  uint64_t freq = 0;      // clock ref bits / s3fifo access counter
  bool visited = false;   // sieve
};

using RefQueue = std::vector<RefEntry>;

size_t FindIn(const RefQueue& q, uint64_t id) {
  for (size_t i = 0; i < q.size(); ++i) {
    if (q[i].id == id) {
      return i;
    }
  }
  return kNpos;
}

uint64_t SumSizes(const RefQueue& q) {
  uint64_t total = 0;
  for (const RefEntry& e : q) {
    total += e.size;
  }
  return total;
}

// Pops the oldest entry and re-appends it as newest (clock/s3fifo
// reinsertion).
void RotateOldestToNewest(RefQueue& q) {
  RefEntry e = q.front();
  q.erase(q.begin());
  q.push_back(e);
}

// ---------------------------------------------------------------------------
// Single-queue policies: FIFO, LRU, CLOCK, SIEVE.

class SingleQueueModel : public ReferenceModel {
 public:
  using ReferenceModel::ReferenceModel;

  bool Contains(uint64_t id) const override { return FindIn(queue_, id) != kNpos; }

 protected:
  uint64_t Occupied() const override { return SumSizes(queue_); }

  RefQueue queue_;
};

class FifoModel : public SingleQueueModel {
 public:
  using SingleQueueModel::SingleQueueModel;
  std::string Name() const override { return "ref-fifo"; }

 protected:
  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    const size_t i = FindIn(queue_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      queue_.erase(queue_.begin() + i);
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    const size_t i = FindIn(queue_, req.id);
    if (i != kNpos) {
      if (!count_based() && queue_[i].size != need) {
        queue_[i].size = need;
        while (Occupied() > capacity() && !queue_.empty()) {
          evicted->push_back(queue_.front().id);
          queue_.erase(queue_.begin());
        }
      }
      return true;
    }
    if (need > capacity()) {
      return false;  // bypass: cannot fit even when empty
    }
    while (Occupied() + need > capacity()) {
      evicted->push_back(queue_.front().id);
      queue_.erase(queue_.begin());
    }
    queue_.push_back(RefEntry{req.id, need, 0, false});
    return false;
  }
};

class LruModel : public SingleQueueModel {
 public:
  using SingleQueueModel::SingleQueueModel;
  std::string Name() const override { return "ref-lru"; }

 protected:
  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    const size_t i = FindIn(queue_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      queue_.erase(queue_.begin() + i);
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    const size_t i = FindIn(queue_, req.id);
    if (i != kNpos) {
      RefEntry e = queue_[i];
      queue_.erase(queue_.begin() + i);
      queue_.push_back(e);  // most recently used = newest
      if (!count_based() && queue_.back().size != need) {
        queue_.back().size = need;
        while (Occupied() > capacity() && !queue_.empty()) {
          evicted->push_back(queue_.front().id);
          queue_.erase(queue_.begin());
        }
      }
      return true;
    }
    if (need > capacity()) {
      return false;
    }
    while (Occupied() + need > capacity()) {
      evicted->push_back(queue_.front().id);
      queue_.erase(queue_.begin());
    }
    queue_.push_back(RefEntry{req.id, need, 0, false});
    return false;
  }
};

class ClockModel : public SingleQueueModel {
 public:
  explicit ClockModel(const CacheConfig& config) : SingleQueueModel(config) {
    const uint64_t bits = std::clamp<uint64_t>(Params(config.params).GetU64("bits", 1), 1, 8);
    max_ref_ = (uint64_t{1} << bits) - 1;
  }
  std::string Name() const override { return "ref-clock"; }

 protected:
  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    const size_t i = FindIn(queue_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      queue_.erase(queue_.begin() + i);
    }
  }

  void EvictOne(std::vector<uint64_t>* evicted) {
    while (!queue_.empty()) {
      if (queue_.front().freq > 0) {
        --queue_.front().freq;
        RotateOldestToNewest(queue_);  // second chance
      } else {
        evicted->push_back(queue_.front().id);
        queue_.erase(queue_.begin());
        return;
      }
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    const size_t i = FindIn(queue_, req.id);
    if (i != kNpos) {
      queue_[i].freq = std::min(queue_[i].freq + 1, max_ref_);
      if (!count_based() && queue_[i].size != need) {
        queue_[i].size = need;
        while (Occupied() > capacity() && !queue_.empty()) {
          EvictOne(evicted);
        }
      }
      return true;
    }
    if (need > capacity()) {
      return false;
    }
    while (Occupied() + need > capacity()) {
      EvictOne(evicted);
    }
    queue_.push_back(RefEntry{req.id, need, 0, false});
    return false;
  }

 private:
  uint64_t max_ref_ = 1;
};

class SieveModel : public SingleQueueModel {
 public:
  using SingleQueueModel::SingleQueueModel;
  std::string Name() const override { return "ref-sieve"; }

 protected:
  // Next-newer neighbour (toward the back); nullopt past the newest.
  std::optional<uint64_t> NewerThan(uint64_t id) const {
    const size_t i = FindIn(queue_, id);
    return i + 1 < queue_.size() ? std::optional<uint64_t>(queue_[i + 1].id) : std::nullopt;
  }

  std::optional<uint64_t> OldestId() const {
    return queue_.empty() ? std::nullopt : std::optional<uint64_t>(queue_.front().id);
  }

  // Mirrors SieveCache::RemoveEntry: the hand advances to the next-newer
  // entry when it points at the one being removed.
  void EraseEntry(uint64_t id) {
    if (hand_ && *hand_ == id) {
      hand_ = NewerThan(id);
    }
    queue_.erase(queue_.begin() + FindIn(queue_, id));
  }

  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    if (FindIn(queue_, id) != kNpos) {
      evicted->push_back(id);
      EraseEntry(id);
    }
  }

  void EvictOne(std::vector<uint64_t>* evicted) {
    std::optional<uint64_t> obj = hand_ ? hand_ : OldestId();
    while (obj && queue_[FindIn(queue_, *obj)].visited) {
      queue_[FindIn(queue_, *obj)].visited = false;
      obj = NewerThan(*obj);
      if (!obj) {
        obj = OldestId();  // wrap: head passed, restart at the tail
      }
    }
    if (obj) {
      hand_ = obj;
      evicted->push_back(*obj);
      EraseEntry(*obj);
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    const size_t i = FindIn(queue_, req.id);
    if (i != kNpos) {
      queue_[i].visited = true;
      if (!count_based() && queue_[i].size != need) {
        queue_[i].size = need;
        while (Occupied() > capacity() && !queue_.empty()) {
          EvictOne(evicted);
        }
      }
      return true;
    }
    if (need > capacity()) {
      return false;
    }
    while (Occupied() + need > capacity()) {
      EvictOne(evicted);
    }
    queue_.push_back(RefEntry{req.id, need, 0, false});
    return false;
  }

 private:
  std::optional<uint64_t> hand_;
};

// ---------------------------------------------------------------------------
// 2Q: probationary A1in (FIFO), main Am (LRU), ghost A1out. A1in hits do not
// promote (the correlated-reference window); only an A1out ghost hit does.

class TwoQModel : public ReferenceModel {
 public:
  explicit TwoQModel(const CacheConfig& config)
      : ReferenceModel(config),
        a1out_(std::max<uint64_t>(
            static_cast<uint64_t>(
                (config.count_based ? config.capacity
                                    : std::max<uint64_t>(config.capacity / 4096, 16)) *
                Params(config.params).GetDouble("kout_ratio", 0.5)),
            1)) {
    const double kin_ratio = Params(config.params).GetDouble("kin_ratio", 0.25);
    kin_capacity_ = std::max<uint64_t>(static_cast<uint64_t>(capacity() * kin_ratio), 1);
  }

  std::string Name() const override { return "ref-2q"; }
  bool Contains(uint64_t id) const override {
    return FindIn(a1in_, id) != kNpos || FindIn(am_, id) != kNpos;
  }

 protected:
  uint64_t Occupied() const override { return SumSizes(a1in_) + SumSizes(am_); }

  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    size_t i = FindIn(a1in_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      a1in_.erase(a1in_.begin() + i);  // explicit delete: not remembered
      return;
    }
    i = FindIn(am_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      am_.erase(am_.begin() + i);
    }
  }

  void EvictOne(std::vector<uint64_t>* evicted) {
    // Reclaim from A1in while it exceeds its share (remembering the id in
    // A1out); otherwise evict the Am LRU tail.
    if (SumSizes(a1in_) > kin_capacity_ || am_.empty()) {
      if (!a1in_.empty()) {
        evicted->push_back(a1in_.front().id);
        a1out_.Insert(a1in_.front().id);
        a1in_.erase(a1in_.begin());
        return;
      }
    }
    if (!am_.empty()) {
      evicted->push_back(am_.front().id);
      am_.erase(am_.begin());
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    size_t i = FindIn(am_, req.id);
    if (i != kNpos) {
      RefEntry e = am_[i];
      am_.erase(am_.begin() + i);
      am_.push_back(e);
      if (!count_based() && am_.back().size != need) {
        am_.back().size = need;
        while (Occupied() > capacity()) {
          EvictOne(evicted);
        }
      }
      return true;
    }
    i = FindIn(a1in_, req.id);
    if (i != kNpos) {
      if (!count_based() && a1in_[i].size != need) {
        a1in_[i].size = need;
        while (Occupied() > capacity()) {
          EvictOne(evicted);
        }
      }
      return true;
    }
    if (need > capacity()) {
      return false;
    }
    while (Occupied() + need > capacity()) {
      EvictOne(evicted);
    }
    if (a1out_.Contains(req.id)) {
      a1out_.Remove(req.id);
      am_.push_back(RefEntry{req.id, need, 0, false});
    } else {
      a1in_.push_back(RefEntry{req.id, need, 0, false});
    }
    return false;
  }

 private:
  RefQueue a1in_;
  RefQueue am_;
  NaiveGhost a1out_;
  uint64_t kin_capacity_ = 1;
};

// ---------------------------------------------------------------------------
// S3-FIFO (Algorithm 1): small probationary S, main M, exact ghost G.

class S3FifoModel : public ReferenceModel {
 public:
  explicit S3FifoModel(const CacheConfig& config)
      : ReferenceModel(config), ghost_(GhostEntries(config)) {
    const Params params(config.params);
    if (params.GetBool("small_lru", false) || params.GetBool("main_lru", false) ||
        params.GetBool("main_sieve", false) ||
        params.GetString("ghost_type", "exact") != "exact") {
      throw std::invalid_argument("s3fifo oracle covers the default queue types only");
    }
    const double small_ratio = std::clamp(params.GetDouble("small_ratio", 0.1), 0.001, 0.999);
    small_target_ = std::max<uint64_t>(static_cast<uint64_t>(capacity() * small_ratio), 1);
    if (small_target_ >= capacity()) {
      small_target_ = capacity() > 1 ? capacity() - 1 : 1;
    }
    main_target_ = capacity() - small_target_;
    threshold_ =
        std::clamp<uint64_t>(params.GetU64("move_to_main_threshold", 2), 1, 16);
    max_freq_ = std::clamp<uint64_t>(params.GetU64("max_freq", 3), 1, 255);
  }

  std::string Name() const override { return "ref-s3fifo"; }
  bool Contains(uint64_t id) const override {
    return FindIn(small_, id) != kNpos || FindIn(main_, id) != kNpos;
  }

  uint64_t ghost_size() const { return ghost_.size(); }
  uint64_t small_target() const { return small_target_; }

 protected:
  static uint64_t GhostEntries(const CacheConfig& config) {
    const uint64_t entries = config.count_based
                                 ? config.capacity
                                 : std::max<uint64_t>(config.capacity / 4096, 16);
    const double ratio = Params(config.params).GetDouble("ghost_ratio", 0.9);
    return std::max<uint64_t>(static_cast<uint64_t>(entries * ratio), 1);
  }

  // Adaptation hooks, mirroring S3FifoCache's (used by the s3fifo-d oracle).
  virtual void OnMissLookup(uint64_t id) { (void)id; }
  virtual void OnDemotionToGhost(uint64_t id) { (void)id; }
  virtual void OnMainEviction(uint64_t id) { (void)id; }

  void set_small_target(uint64_t target) {
    small_target_ = std::clamp<uint64_t>(target, 1, capacity() - 1);
    main_target_ = capacity() - small_target_;
  }

  uint64_t Occupied() const override { return SumSizes(small_) + SumSizes(main_); }

  void Delete(uint64_t id, std::vector<uint64_t>* evicted) override {
    size_t i = FindIn(small_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      small_.erase(small_.begin() + i);  // explicit delete: no ghost entry
      return;
    }
    i = FindIn(main_, id);
    if (i != kNpos) {
      evicted->push_back(id);
      main_.erase(main_.begin() + i);
    }
  }

  // One Algorithm-1 EVICTS step: the S tail moves to M if accessed at least
  // `threshold_` times, else it leaves the cache and its id enters G.
  void EvictFromSmall(std::vector<uint64_t>* evicted) {
    if (small_.empty()) {
      return;
    }
    RefEntry t = small_.front();
    small_.erase(small_.begin());
    if (t.freq >= threshold_) {
      t.freq = 0;  // access bits cleared in the move
      main_.push_back(t);
      while (SumSizes(main_) > main_target_) {
        EvictFromMain(evicted);
      }
    } else {
      ghost_.Insert(t.id);
      evicted->push_back(t.id);
      OnDemotionToGhost(t.id);
    }
  }

  // EVICTM: FIFO-reinsertion until one object is evicted.
  void EvictFromMain(std::vector<uint64_t>* evicted) {
    while (!main_.empty()) {
      if (main_.front().freq > 0) {
        --main_.front().freq;
        RotateOldestToNewest(main_);
      } else {
        const uint64_t id = main_.front().id;
        main_.erase(main_.begin());
        evicted->push_back(id);
        OnMainEviction(id);
        return;
      }
    }
  }

  void EnsureFree(uint64_t need, std::vector<uint64_t>* evicted) {
    while (Occupied() + need > capacity()) {
      if ((SumSizes(small_) > small_target_ && !small_.empty()) || main_.empty()) {
        EvictFromSmall(evicted);
      } else {
        EvictFromMain(evicted);
      }
      if (small_.empty() && main_.empty()) {
        return;
      }
    }
  }

  bool Access(const Request& req, std::vector<uint64_t>* evicted) override {
    const uint64_t need = SizeOf(req);
    size_t i = FindIn(small_, req.id);
    RefQueue* home = &small_;
    if (i == kNpos) {
      i = FindIn(main_, req.id);
      home = &main_;
    }
    if (i != kNpos) {
      RefEntry& e = (*home)[i];
      e.freq = std::min(e.freq + 1, max_freq_);  // lazy promotion: no move
      if (!count_based() && e.size != need) {
        e.size = need;
        EnsureFree(0, evicted);
      }
      return true;
    }
    OnMissLookup(req.id);
    if (need > capacity()) {
      return false;
    }
    EnsureFree(need, evicted);
    const bool ghost_hit = ghost_.Contains(req.id);
    if (ghost_hit) {
      ghost_.Remove(req.id);
      main_.push_back(RefEntry{req.id, need, 0, false});
    } else {
      small_.push_back(RefEntry{req.id, need, 0, false});
    }
    return false;
  }

 private:
  RefQueue small_;
  RefQueue main_;
  NaiveGhost ghost_;
  uint64_t small_target_ = 1;
  uint64_t main_target_ = 1;
  uint64_t threshold_ = 2;
  uint64_t max_freq_ = 3;
};

// S3-FIFO-D (§6.2.2): two adaptation ghosts balance the marginal hits on
// S-evicted vs M-evicted objects by shifting the S/M split.
class S3FifoDModel : public S3FifoModel {
 public:
  explicit S3FifoDModel(const CacheConfig& config)
      : S3FifoModel(config),
        small_evicted_(AdaptGhostEntries(config)),
        main_evicted_(AdaptGhostEntries(config)) {
    const Params params(config.params);
    min_hits_ = params.GetU64("adapt_min_hits", 100);
    imbalance_ = params.GetDouble("adapt_imbalance", 2.0);
    step_ = std::max<uint64_t>(
        static_cast<uint64_t>(capacity() * params.GetDouble("adapt_step_ratio", 0.001)), 1);
  }

  std::string Name() const override { return "ref-s3fifo-d"; }

 protected:
  static uint64_t AdaptGhostEntries(const CacheConfig& config) {
    const double ratio = Params(config.params).GetDouble("adapt_ghost_ratio", 0.05);
    const uint64_t entries = config.count_based
                                 ? config.capacity
                                 : std::max<uint64_t>(config.capacity / 4096, 16);
    return std::max<uint64_t>(static_cast<uint64_t>(entries * ratio), 1);
  }

  void OnDemotionToGhost(uint64_t id) override { small_evicted_.Insert(id); }
  void OnMainEviction(uint64_t id) override { main_evicted_.Insert(id); }

  void OnMissLookup(uint64_t id) override {
    if (small_evicted_.Contains(id)) {
      small_evicted_.Remove(id);
      ++small_ghost_hits_;
    }
    if (main_evicted_.Contains(id)) {
      main_evicted_.Remove(id);
      ++main_ghost_hits_;
    }
    MaybeRebalance();
  }

 private:
  void MaybeRebalance() {
    if (small_ghost_hits_ + main_ghost_hits_ <= min_hits_) {
      return;
    }
    const double hi = static_cast<double>(std::max(small_ghost_hits_, main_ghost_hits_));
    const double lo = static_cast<double>(std::min(small_ghost_hits_, main_ghost_hits_));
    if (hi < imbalance_ * std::max(lo, 1.0)) {
      return;
    }
    if (small_ghost_hits_ > main_ghost_hits_) {
      set_small_target(std::min<uint64_t>(small_target() + step_, capacity() - 1));
    } else {
      set_small_target(small_target() > step_ ? small_target() - step_ : 1);
    }
    small_ghost_hits_ = 0;
    main_ghost_hits_ = 0;
  }

  NaiveGhost small_evicted_;
  NaiveGhost main_evicted_;
  uint64_t small_ghost_hits_ = 0;
  uint64_t main_ghost_hits_ = 0;
  uint64_t min_hits_ = 100;
  double imbalance_ = 2.0;
  uint64_t step_ = 1;
};

}  // namespace

// ---------------------------------------------------------------------------

ReferenceModel::ReferenceModel(const CacheConfig& config)
    : capacity_(config.capacity), count_based_(config.count_based) {
  if (capacity_ == 0) {
    throw std::invalid_argument("reference model capacity must be > 0");
  }
}

StepOutcome ReferenceModel::Step(const Request& req) {
  ++clock_;  // mirrors Cache::Get: the logical clock ticks for every request
  StepOutcome out;
  if (req.op == OpType::kDelete) {
    Delete(req.id, &out.evicted);
  } else {
    out.hit = Access(req, &out.evicted);
  }
  std::sort(out.evicted.begin(), out.evicted.end());
  out.occupied = Occupied();
  return out;
}

void NaiveGhost::Insert(uint64_t id) {
  Remove(id);  // refresh: at most one live slot per id
  ids_.push_back(id);
  if (ids_.size() > capacity_) {
    ids_.erase(ids_.begin());
  }
}

bool NaiveGhost::Contains(uint64_t id) const {
  return std::find(ids_.begin(), ids_.end(), id) != ids_.end();
}

void NaiveGhost::set_capacity(uint64_t capacity) {
  capacity_ = capacity;
  if (ids_.size() > capacity_) {
    ids_.erase(ids_.begin(), ids_.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
}

void NaiveGhost::Remove(uint64_t id) {
  auto it = std::find(ids_.begin(), ids_.end(), id);
  if (it != ids_.end()) {
    ids_.erase(it);
  }
}

std::unique_ptr<ReferenceModel> CreateReferenceModel(std::string_view name,
                                                     const CacheConfig& config) {
  const std::string n(name);
  if (n == "fifo") {
    return std::make_unique<FifoModel>(config);
  }
  if (n == "lru") {
    return std::make_unique<LruModel>(config);
  }
  if (n == "clock" || n == "fifo-reinsertion" || n == "second-chance") {
    return std::make_unique<ClockModel>(config);
  }
  if (n == "sieve") {
    return std::make_unique<SieveModel>(config);
  }
  if (n == "2q" || n == "twoq") {
    return std::make_unique<TwoQModel>(config);
  }
  if (n == "s3fifo") {
    return std::make_unique<S3FifoModel>(config);
  }
  if (n == "s3fifo-d") {
    return std::make_unique<S3FifoDModel>(config);
  }
  throw std::invalid_argument("no reference oracle for policy: " + n);
}

const std::vector<std::string>& OracleCoveredPolicies() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fifo", "lru", "clock", "sieve", "2q", "s3fifo", "s3fifo-d",
  };
  return *names;
}

}  // namespace check
}  // namespace s3fifo
