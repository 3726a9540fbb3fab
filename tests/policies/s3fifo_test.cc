// S3-FIFO: unit tests for Algorithm 1's transitions, structural invariants,
// instrumentation, and a differential test against an independent
// transliteration of the algorithm.
#include "src/policies/s3fifo.h"

#include <gtest/gtest.h>

#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/workload/scan_workload.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

S3FifoCache MakeS3(uint64_t cap, const std::string& params = "") {
  CacheConfig config;
  config.capacity = cap;
  config.params = params;
  return S3FifoCache(config);
}

Request Get(uint64_t id) {
  Request r;
  r.id = id;
  return r;
}

TEST(S3FifoTest, NewObjectsEnterSmallQueue) {
  auto c = MakeS3(100);
  c.Get(Get(1));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_EQ(c.small_occupied(), 1u);
  EXPECT_EQ(c.main_occupied(), 0u);
  EXPECT_EQ(c.stats().inserted_to_small, 1u);
}

TEST(S3FifoTest, OneHitWondersDemotedToGhost) {
  auto c = MakeS3(100);  // small target = 10
  // 11 one-touch objects: the first overflows S into the ghost.
  for (uint64_t i = 0; i < 95; ++i) {
    c.Get(Get(i));
  }
  // With only cold objects, evictions (once the cache fills) come from S.
  for (uint64_t i = 95; i < 120; ++i) {
    c.Get(Get(i));
  }
  EXPECT_GT(c.stats().demoted_to_ghost, 0u);
  EXPECT_EQ(c.stats().moved_to_main, 0u);
  EXPECT_TRUE(c.GhostContains(0));
}

TEST(S3FifoTest, GhostHitInsertsToMain) {
  auto c = MakeS3(100);
  for (uint64_t i = 0; i < 120; ++i) {
    c.Get(Get(i));  // pushes early ids through S into the ghost
  }
  ASSERT_TRUE(c.GhostContains(0));
  c.Get(Get(0));  // miss, but remembered: straight to M
  EXPECT_TRUE(c.Contains(0));
  EXPECT_GE(c.stats().ghost_hit_inserts, 1u);
  EXPECT_FALSE(c.GhostContains(0));  // consumed
  EXPECT_GE(c.main_occupied(), 1u);
}

TEST(S3FifoTest, DefaultThresholdFollowsAlgorithmOne) {
  // Algorithm 1 line 18: move to M only when freq > 1 (>= 2 hits).
  auto c = MakeS3(100);
  c.Get(Get(500));
  c.Get(Get(500));  // one hit: freq = 1
  for (uint64_t i = 0; i < 110; ++i) {
    c.Get(Get(1000 + i));  // flush S
  }
  // freq 1 < threshold 2: 500 went to the ghost, not to M.
  EXPECT_FALSE(c.Contains(500));
  EXPECT_TRUE(c.GhostContains(500));

  auto c2 = MakeS3(100);
  c2.Get(Get(500));
  c2.Get(Get(500));
  c2.Get(Get(500));  // two hits: freq = 2
  for (uint64_t i = 0; i < 110; ++i) {
    c2.Get(Get(1000 + i));
  }
  EXPECT_TRUE(c2.Contains(500));  // moved to M
  EXPECT_GE(c2.stats().moved_to_main, 1u);
}

TEST(S3FifoTest, ThresholdOneParamMovesSingleHitObjects) {
  auto c = MakeS3(100, "move_to_main_threshold=1");
  c.Get(Get(500));
  c.Get(Get(500));  // freq 1 >= threshold 1
  for (uint64_t i = 0; i < 110; ++i) {
    c.Get(Get(1000 + i));
  }
  EXPECT_TRUE(c.Contains(500));
}

TEST(S3FifoTest, MainReinsertionGivesSecondChance) {
  auto c = MakeS3(20, "small_ratio=0.5,move_to_main_threshold=1");
  // Put object 1 into M: two touches in S, then enough churn to reach the
  // S tail (capacity 20, so evictions start at the 21st resident).
  c.Get(Get(1));
  c.Get(Get(1));
  for (uint64_t i = 10; i < 40; ++i) {
    c.Get(Get(i));  // flushes S; 1 moves to M (access bits cleared)
  }
  ASSERT_TRUE(c.Contains(1));
  c.Get(Get(1));  // freq 1 inside M
  const uint64_t reinsertions_before = c.stats().main_reinsertions;
  // Churn of twice-touched objects floods M; when 1 reaches the M tail its
  // non-zero freq earns a reinsertion.
  for (uint64_t i = 100; i < 160; ++i) {
    c.Get(Get(i));
    c.Get(Get(i));
  }
  EXPECT_GT(c.stats().main_reinsertions, reinsertions_before);
}

TEST(S3FifoTest, FrequencyCappedAtMax) {
  auto c = MakeS3(100);
  for (int i = 0; i < 50; ++i) {
    c.Get(Get(1));  // far more than 3 hits; counter must cap (2 bits)
  }
  EXPECT_TRUE(c.Contains(1));  // and nothing overflows
}

TEST(S3FifoTest, SmallOccupiedPlusMainEqualsOccupied) {
  auto c = MakeS3(64);
  ZipfWorkloadConfig zc;
  zc.num_objects = 500;
  zc.num_requests = 20000;
  zc.alpha = 1.0;
  zc.seed = 2;
  Trace t = GenerateZipfTrace(zc);
  for (const Request& r : t.requests()) {
    c.Get(r);
    ASSERT_EQ(c.small_occupied() + c.main_occupied(), c.occupied());
    ASSERT_LE(c.occupied(), c.capacity());
  }
}

TEST(S3FifoTest, DemotionListenerFires) {
  auto c = MakeS3(50);
  uint64_t promoted = 0, demoted = 0;
  c.set_demotion_listener([&](const DemotionEvent& ev) {
    EXPECT_LE(ev.enter_time, ev.leave_time);
    if (ev.promoted) {
      ++promoted;
    } else {
      ++demoted;
    }
  });
  ZipfWorkloadConfig zc;
  zc.num_objects = 400;
  zc.num_requests = 10000;
  zc.alpha = 1.1;
  zc.seed = 3;
  Trace t = GenerateZipfTrace(zc);
  Simulate(t, c);
  EXPECT_GT(promoted, 0u);
  EXPECT_GT(demoted, 0u);
  EXPECT_EQ(promoted, c.stats().moved_to_main);
  EXPECT_EQ(demoted, c.stats().demoted_to_ghost);
}

TEST(S3FifoTest, GhostTableVariantTracksExactGhost) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 2000;
  zc.num_requests = 50000;
  zc.alpha = 0.8;
  zc.seed = 4;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 200;
  auto exact = CreateCache("s3fifo", config);
  config.params = "ghost_type=table";
  auto table = CreateCache("s3fifo", config);
  const double mr_exact = Simulate(t, *exact).MissRatio();
  const double mr_table = Simulate(t, *table).MissRatio();
  EXPECT_NEAR(mr_exact, mr_table, 0.01);
}

TEST(S3FifoTest, QueueTypeAblationRuns) {
  // §6.3: LRU queues instead of FIFO queues — must work and not change
  // results dramatically.
  ZipfWorkloadConfig zc;
  zc.num_objects = 1000;
  zc.num_requests = 30000;
  zc.alpha = 1.0;
  zc.seed = 5;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 100;
  auto fifo_q = CreateCache("s3fifo", config);
  config.params = "small_lru=1,main_lru=1";
  auto lru_q = CreateCache("s3fifo", config);
  const double mr_fifo = Simulate(t, *fifo_q).MissRatio();
  const double mr_lru = Simulate(t, *lru_q).MissRatio();
  EXPECT_NEAR(mr_fifo, mr_lru, 0.05);  // "the queue type does not matter"
}

TEST(S3FifoTest, SieveMainExtensionRuns) {
  // §7: "Sieve can be used to replace the large FIFO queue in S3-FIFO".
  ZipfWorkloadConfig zc;
  zc.num_objects = 1500;
  zc.num_requests = 50000;
  zc.alpha = 1.0;
  zc.new_object_fraction = 0.05;
  zc.delete_fraction = 0.01;
  zc.seed = 8;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 150;
  auto plain = CreateCache("s3fifo", config);
  config.params = "main_sieve=1";
  auto sieve_main = CreateCache("s3fifo", config);
  const double mr_plain = Simulate(t, *plain).MissRatio();
  const double mr_sieve = Simulate(t, *sieve_main).MissRatio();
  // Comparable efficiency; both must respect capacity.
  EXPECT_NEAR(mr_plain, mr_sieve, 0.05);
  EXPECT_LE(sieve_main->occupied(), 150u);
}

TEST(S3FifoTest, SieveMainSurvivesDeletesAtHand) {
  CacheConfig config;
  config.capacity = 30;
  config.params = "main_sieve=1,move_to_main_threshold=1,small_ratio=0.3";
  auto c = CreateCache("s3fifo", config);
  // Build up M, then delete aggressively while evicting (exercises the
  // hand-invalidates-on-delete path).
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) {
    Request r;
    r.id = rng.NextBounded(200);
    r.op = rng.NextBool(0.1) ? OpType::kDelete : OpType::kGet;
    c->Get(r);
    ASSERT_LE(c->occupied(), 30u);
  }
}

TEST(S3FifoTest, BeatsLruOnHighOneHitWonderWorkload) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 2000;
  zc.num_requests = 60000;
  zc.alpha = 0.9;
  zc.new_object_fraction = 0.3;  // CDN-like: many one-hit wonders
  zc.seed = 6;
  Trace t = GenerateZipfTrace(zc);
  CacheConfig config;
  config.capacity = 200;
  auto s3 = CreateCache("s3fifo", config);
  auto lru = CreateCache("lru", config);
  auto fifo = CreateCache("fifo", config);
  const double mr_s3 = Simulate(t, *s3).MissRatio();
  const double mr_lru = Simulate(t, *lru).MissRatio();
  const double mr_fifo = Simulate(t, *fifo).MissRatio();
  EXPECT_LT(mr_s3, mr_lru);
  EXPECT_LT(mr_s3, mr_fifo);
}

// Two-hit pattern interleaved with a persistent hot set, preceded by a
// warmup of promotable objects that fills M. Without the warmup M stays
// empty and S transiently spans the whole cache (eviction only runs when the
// *total* cache is full, per Algorithm 1), hiding the adversarial effect.
// Designed for a cache of 200 objects: S pins at 20, M at 180.
Trace AdversarialMix(uint64_t num_objects, uint64_t lag) {
  constexpr uint64_t kHotSet = 60;
  constexpr uint64_t kWarmObjects = 400;
  std::vector<Request> out;
  // Warmup: 3 consecutive accesses give freq 2 — enough to be promoted to M
  // when S evicts them.
  for (uint64_t w = 0; w < kWarmObjects; ++w) {
    for (int rep = 0; rep < 3; ++rep) {
      out.push_back({.id = (1ULL << 51) + w});
    }
  }
  Trace twohit = GenerateTwoHitPattern(num_objects, lag);
  uint64_t hot = 0;
  for (size_t i = 0; i < twohit.size(); ++i) {
    out.push_back(twohit[i]);
    out.push_back({.id = (1ULL << 50) + (hot++ % kHotSet)});
  }
  return Trace(std::move(out), "adversarial_mix");
}

TEST(S3FifoTest, AdversarialTwoHitPatternLosesToLru) {
  // §5.2 "Adversarial workloads": every object requested exactly twice with
  // a reuse distance that overflows S but fits the full cache.
  Trace t = AdversarialMix(5000, 30);
  CacheConfig config;
  config.capacity = 200;  // S ~= 20; two-hit reuse lands beyond S, within 200
  auto s3 = CreateCache("s3fifo", config);
  auto lru = CreateCache("lru", config);
  const double mr_s3 = Simulate(t, *s3).MissRatio();
  const double mr_lru = Simulate(t, *lru).MissRatio();
  EXPECT_GT(mr_s3, mr_lru);
}

// ---------------------------------------------------------------------------
// Differential test: an independent, straightforward transliteration of the
// algorithm (deques + hash maps, unit sizes), matching the reference
// implementation's eviction dispatch (evict from S while it exceeds its
// target, else from M).
class S3FifoReferenceModel {
 public:
  explicit S3FifoReferenceModel(uint64_t capacity, uint32_t threshold = 2)
      : capacity_(capacity),
        small_target_(std::max<uint64_t>(capacity / 10, 1)),
        ghost_capacity_(std::max<uint64_t>(capacity * 9 / 10, 1)),
        threshold_(threshold) {}

  bool Get(uint64_t id) {
    auto it = freq_.find(id);
    if (it != freq_.end()) {
      it->second = std::min(it->second + 1, 3u);
      return true;
    }
    while (small_.size() + main_.size() >= capacity_) {
      if (small_.size() > small_target_ || main_.empty()) {
        EvictSmall();
      } else {
        EvictMain();
      }
    }
    if (GhostContainsRef(id)) {
      GhostRemove(id);
      main_.push_front(id);
    } else {
      small_.push_front(id);
    }
    freq_[id] = 0;
    return false;
  }

 private:
  void EvictSmall() {
    const uint64_t t = small_.back();
    small_.pop_back();
    if (freq_[t] >= threshold_) {
      freq_[t] = 0;
      main_.push_front(t);
      while (main_.size() > capacity_ - small_target_) {
        EvictMain();
      }
    } else {
      freq_.erase(t);
      GhostInsert(t);
    }
  }

  void EvictMain() {
    while (!main_.empty()) {
      const uint64_t t = main_.back();
      main_.pop_back();
      if (freq_[t] > 0) {
        --freq_[t];
        main_.push_front(t);
      } else {
        freq_.erase(t);
        return;
      }
    }
  }

  // Ghost: FIFO of most-recent insertions per id. A slot is live iff its
  // sequence number matches the id's latest insertion — a plain
  // membership-set check would wrongly treat a removed-then-reinserted id's
  // stale front slot as live and evict the fresh entry early.
  void GhostInsert(uint64_t id) {
    while (ghost_seq_.size() >= ghost_capacity_) {
      while (!ghost_fifo_.empty()) {
        auto [seq, old] = ghost_fifo_.front();
        auto it = ghost_seq_.find(old);
        if (it != ghost_seq_.end() && it->second == seq) {
          break;
        }
        ghost_fifo_.pop_front();  // stale slot
      }
      if (ghost_fifo_.empty()) {
        break;
      }
      ghost_seq_.erase(ghost_fifo_.front().second);
      ghost_fifo_.pop_front();
    }
    const uint64_t seq = ghost_next_seq_++;
    ghost_seq_[id] = seq;
    ghost_fifo_.emplace_back(seq, id);
  }

  bool GhostContainsRef(uint64_t id) const { return ghost_seq_.count(id) != 0; }
  void GhostRemove(uint64_t id) { ghost_seq_.erase(id); }

  uint64_t capacity_, small_target_, ghost_capacity_;
  uint32_t threshold_;
  uint64_t ghost_next_seq_ = 0;
  std::deque<uint64_t> small_, main_;
  std::deque<std::pair<uint64_t, uint64_t>> ghost_fifo_;  // (seq, id)
  std::unordered_map<uint64_t, uint32_t> freq_;
  std::unordered_map<uint64_t, uint64_t> ghost_seq_;
};

class S3FifoDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(S3FifoDifferentialTest, MatchesReferenceModelPerRequest) {
  ZipfWorkloadConfig zc;
  zc.num_objects = 800;
  zc.num_requests = 40000;
  zc.alpha = 1.0;
  zc.new_object_fraction = 0.05;
  zc.seed = GetParam();
  Trace t = GenerateZipfTrace(zc);

  CacheConfig config;
  config.capacity = 100;
  S3FifoCache impl(config);
  S3FifoReferenceModel ref(100);
  for (size_t i = 0; i < t.size(); ++i) {
    const bool a = impl.Get(t[i]);
    const bool b = ref.Get(t[i].id);
    ASSERT_EQ(a, b) << "divergence at request " << i << " id " << t[i].id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, S3FifoDifferentialTest, ::testing::Values(1, 2, 3, 4, 5));

// Structural invariants across a capacity sweep: queue accounting, frequency
// bounds, ghost/resident exclusivity.
class S3FifoCapacitySweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(S3FifoCapacitySweepTest, InvariantsHoldAtEveryCapacity) {
  const uint64_t capacity = GetParam();
  ZipfWorkloadConfig zc;
  zc.num_objects = 2000;
  zc.num_requests = 30000;
  zc.alpha = 1.0;
  zc.new_object_fraction = 0.05;
  zc.delete_fraction = 0.02;
  zc.seed = capacity;
  Trace t = GenerateZipfTrace(zc);

  CacheConfig config;
  config.capacity = capacity;
  S3FifoCache cache(config);
  for (size_t i = 0; i < t.size(); ++i) {
    cache.Get(t[i]);
    ASSERT_LE(cache.occupied(), capacity);
    ASSERT_EQ(cache.small_occupied() + cache.main_occupied(), cache.occupied());
    if (i % 512 == 0) {
      // Resident ids must not be remembered by the ghost.
      ASSERT_FALSE(cache.Contains(t[i].id) && cache.GhostContains(t[i].id));
    }
  }
  // Flow conservation: every admission either left via quick demotion, via a
  // main eviction, via an explicit delete, or is still resident.
  const auto& stats = cache.stats();
  uint64_t deletes = 0;
  for (const Request& r : t.requests()) {
    if (r.op == OpType::kDelete) {
      ++deletes;  // upper bound on delete-removals (some miss)
    }
  }
  const uint64_t admitted = stats.inserted_to_small + stats.ghost_hit_inserts;
  const uint64_t departed = stats.demoted_to_ghost + stats.main_evictions;
  ASSERT_GE(admitted, departed + cache.occupied());
  EXPECT_LE(admitted - departed - cache.occupied(), deletes);
}

INSTANTIATE_TEST_SUITE_P(Capacities, S3FifoCapacitySweepTest,
                         ::testing::Values(1, 2, 3, 5, 10, 50, 100, 500, 2000));

}  // namespace
}  // namespace s3fifo
