// Micro-benchmarks (google-benchmark): per-request cost of each simulated
// policy, plus the core substrate operations (Zipf sampling, hashing, ghost
// structures, sketch, MPMC ring). Supports the §4.3 overhead analysis.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/ebr.h"
#include "src/concurrent/lockfree_hash_map.h"
#include "src/core/cache_factory.h"
#include "src/trace/trace.h"
#include "src/trace/trace_view.h"
#include "src/util/count_min_sketch.h"
#include "src/util/flat_map.h"
#include "src/util/ghost_queue.h"
#include "src/util/ghost_table.h"
#include "src/util/hash.h"
#include "src/util/intrusive_list.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace {

void BM_Mix64(benchmark::State& state) {
  uint64_t x = 1;
  for (auto _ : state) {
    x = Mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(1 << 20, 1.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// Ghost structures across working-set sizes: capacity = range(0), id universe
// 5x capacity (the §4.2 regime — most lookups miss, inserts churn buckets).
void BM_GhostQueue(benchmark::State& state) {
  const uint64_t capacity = static_cast<uint64_t>(state.range(0));
  GhostQueue ghost(capacity);
  Rng rng(2);
  for (auto _ : state) {
    const uint64_t id = rng.NextBounded(5 * capacity);
    ghost.Insert(id);
    benchmark::DoNotOptimize(ghost.Contains(id ^ 1));
  }
}
BENCHMARK(BM_GhostQueue)->RangeMultiplier(8)->Range(1 << 10, 1 << 19);

void BM_GhostTable(benchmark::State& state) {
  const uint64_t capacity = static_cast<uint64_t>(state.range(0));
  GhostTable ghost(capacity);
  Rng rng(2);
  for (auto _ : state) {
    const uint64_t id = rng.NextBounded(5 * capacity);
    ghost.Insert(id);
    benchmark::DoNotOptimize(ghost.Contains(id ^ 1));
  }
}
BENCHMARK(BM_GhostTable)->RangeMultiplier(8)->Range(1 << 10, 1 << 19);

void BM_CountMinSketch(benchmark::State& state) {
  CountMinSketch sketch(1 << 16);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Increment(rng.NextBounded(1 << 18)));
  }
}
BENCHMARK(BM_CountMinSketch);

// FlatMap vs std::unordered_map on the S3-FIFO table access pattern: Zipf
// lookups (mostly hits), miss -> insert, FIFO-ordered erase at capacity —
// the exact find/emplace/erase mix the policies' hot path issues. The entry
// mirrors S3FifoCache::Entry (intrusive hook and all) so both tables move
// the same bytes.
struct ChurnEntry {
  uint64_t id = 0;
  uint64_t size = 1;
  uint32_t freq = 0;
  uint32_t hits = 0;
  bool in_small = true;
  uint64_t insert_time = 0;
  uint64_t stage_enter_time = 0;
  uint64_t last_access_time = 0;
  ListHook hook;
};

template <typename Table>
void HashChurn(benchmark::State& state, Table& table) {
  constexpr uint64_t kObjects = 1 << 16;
  constexpr size_t kCapacity = kObjects / 10;
  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(7);
  std::vector<uint64_t> fifo(kCapacity, 0);  // ring of resident ids, FIFO order
  size_t head = 0, resident = 0;
  uint64_t tick = 0;
  for (auto _ : state) {
    const uint64_t id = zipf.Sample(rng);
    ++tick;
    if constexpr (std::is_same_v<Table, FlatMap<ChurnEntry>>) {
      if (ChurnEntry* e = table.Find(id)) {
        ++e->freq;
        e->last_access_time = tick;
        continue;
      }
      if (resident == kCapacity) {
        table.Erase(fifo[head]);
        --resident;
      }
      ChurnEntry& e = *table.Emplace(id);
      e.id = id;
      e.insert_time = tick;
    } else {
      auto it = table.find(id);
      if (it != table.end()) {
        ++it->second.freq;
        it->second.last_access_time = tick;
        continue;
      }
      if (resident == kCapacity) {
        table.erase(fifo[head]);
        --resident;
      }
      ChurnEntry& e = table[id];
      e.id = id;
      e.insert_time = tick;
    }
    fifo[head] = id;
    head = (head + 1) % kCapacity;
    ++resident;
  }
  benchmark::DoNotOptimize(resident);
}

void BM_FlatMapChurn(benchmark::State& state) {
  FlatMap<ChurnEntry> table;
  HashChurn(state, table);
}
BENCHMARK(BM_FlatMapChurn);

// Pure probe cost across table sizes and load factors: a table of range(0)
// hash slots filled to range(1)% (Reserve pins the slot count so the load
// factor is exact, not wherever the growth policy landed), probed with a
// uniform stream of resident keys (FindHit) or absent keys (FindMiss).
// FindMiss is the probe-length stress: every lookup must walk to
// termination, which the group-probing layout answers with one 16-wide
// compare per group instead of a per-slot loop.
void FlatMapProbeArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t slots : {1 << 12, 1 << 16, 1 << 20}) {
    for (const int64_t load_pct : {50, 70}) {
      b->Args({slots, load_pct});
    }
  }
}

void BM_FlatMapFindHit(benchmark::State& state) {
  const uint64_t slots = static_cast<uint64_t>(state.range(0));
  const uint64_t keys = slots * static_cast<uint64_t>(state.range(1)) / 100;
  FlatMap<ChurnEntry> table;
  table.Reserve(slots * 3 / 4);  // Reserve(3/4 * slots) allocates exactly `slots`
  for (uint64_t k = 1; k <= keys; ++k) {
    table.Emplace(k)->id = k;
  }
  Rng rng(11);
  uint64_t sum = 0;
  for (auto _ : state) {
    const uint64_t key = 1 + rng.NextBounded(keys);
    const ChurnEntry* e = table.Find(key);
    sum += e != nullptr ? e->id : 0;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_FlatMapFindHit)->Apply(FlatMapProbeArgs);

void BM_FlatMapFindMiss(benchmark::State& state) {
  const uint64_t slots = static_cast<uint64_t>(state.range(0));
  const uint64_t keys = slots * static_cast<uint64_t>(state.range(1)) / 100;
  FlatMap<ChurnEntry> table;
  table.Reserve(slots * 3 / 4);
  for (uint64_t k = 1; k <= keys; ++k) {
    table.Emplace(k)->id = k;
  }
  Rng rng(13);
  for (auto _ : state) {
    const uint64_t key = (1ull << 40) + rng.NextBounded(1ull << 30);  // never inserted
    benchmark::DoNotOptimize(table.Find(key));
  }
}
BENCHMARK(BM_FlatMapFindMiss)->Apply(FlatMapProbeArgs);

void BM_UnorderedMapChurn(benchmark::State& state) {
  std::unordered_map<uint64_t, ChurnEntry> table;
  HashChurn(state, table);
}
BENCHMARK(BM_UnorderedMapChurn);

// Concurrent Get-hit path (§5.3): the index probe dominates a cache hit, so
// time the lock-free LockFreeHashMap on an all-hit Zipf probe stream,
// single-threaded (pure per-op cost) and at 4 threads (shared-line cost —
// on a box with fewer cores this measures contention overhead, not scaling).
struct IndexEntry {
  explicit IndexEntry(uint64_t k) : key(k) {}
  uint64_t key;
};
constexpr uint64_t kIndexObjects = 1 << 16;

void BM_LockFreeMapGetHit(benchmark::State& state) {
  static LockFreeHashMap<IndexEntry*>* map = [] {
    auto* m = new LockFreeHashMap<IndexEntry*>(kIndexObjects, 64);
    for (uint64_t k = 0; k < kIndexObjects; ++k) {
      m->InsertIfAbsent(k, new IndexEntry(k));
    }
    return m;
  }();
  ZipfDistribution zipf(kIndexObjects, 1.0);
  Rng rng(100 + state.thread_index());
  for (auto _ : state) {
    const uint64_t id = zipf.Sample(rng) - 1;
    EbrDomain::Guard guard;
    uint64_t key = 0;
    if (IndexEntry* e = map->Find(id)) {
      key = e->key;
    }
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_LockFreeMapGetHit)->Threads(1);
BENCHMARK(BM_LockFreeMapGetHit)->Threads(4);

// Full ConcurrentS3Fifo Get on a hit-dominated Zipf stream (cache = 10% of
// the universe, pre-warmed): the end-to-end cost the lock-free read path buys
// down — EBR pin, index probe, capped freq increment, payload touch.
void BM_ConcurrentS3FifoGet(benchmark::State& state) {
  static ConcurrentS3Fifo* cache = [] {
    ConcurrentCacheConfig config;
    config.capacity_objects = kIndexObjects / 10;
    config.value_size = 64;
    auto* c = new ConcurrentS3Fifo(config);
    ZipfDistribution zipf(kIndexObjects, 1.0);
    Rng rng(7);
    for (uint64_t i = 0; i < kIndexObjects * 4; ++i) {
      c->Get(zipf.Sample(rng));
    }
    return c;
  }();
  ZipfDistribution zipf(kIndexObjects, 1.0);
  Rng rng(100 + state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->Get(zipf.Sample(rng)));
  }
}
BENCHMARK(BM_ConcurrentS3FifoGet)->Threads(1);
BENCHMARK(BM_ConcurrentS3FifoGet)->Threads(4);

// Per-request cost of each policy on a Zipf(1.0) stream, cache = 10% of the
// universe (≈90% hit ratio: dominated by the hit path, as in production).
void BM_PolicyGet(benchmark::State& state, const std::string& policy) {
  constexpr uint64_t kObjects = 1 << 16;
  CacheConfig config;
  config.capacity = kObjects / 10;
  auto cache = CreateCache(policy, config);
  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(7);
  Request req;
  for (auto _ : state) {
    req.id = zipf.Sample(rng);
    benchmark::DoNotOptimize(cache->Get(req));
  }
}
// Batched vs scalar access on one shared pre-built Zipf trace: per-request
// cost of Cache::GetBatch — the policies' devirtualized block loop plus
// batched eviction sweeps — next to the equivalent prefetch-ahead Get()
// loop (the pre-batching simulator hot path). Each iteration replays one
// 4096-request chunk and advances through the trace, so the cache sits at
// its steady-state resident set; counters report requests/s.
void BM_AccessBatch(benchmark::State& state, const std::string& policy, bool batched) {
  constexpr uint64_t kObjects = 1 << 16;
  constexpr uint64_t kChunk = 4096;
  static const Trace* trace = [] {
    auto* t = new Trace;
    ZipfDistribution zipf(kObjects, 1.0);
    Rng rng(7);
    Request req;
    for (uint64_t i = 0; i < (1u << 20); ++i) {
      req.id = zipf.Sample(rng);
      t->Append(req);
    }
    return t;
  }();
  const TraceView view = TraceView::Borrow(*trace);
  CacheConfig config;
  config.capacity = kObjects / 10;
  auto cache = CreateCache(policy, config);
  std::vector<uint8_t> hits(kChunk);
  cache->GetBatch(view, 0, kChunk, hits.data());  // warm past the cold start
  uint64_t begin = 0;
  for (auto _ : state) {
    const uint64_t end = begin + kChunk;
    if (batched) {
      cache->GetBatch(view, begin, end, hits.data());
    } else {
      for (uint64_t i = begin; i < end; ++i) {
        if (i + kPrefetchDistance < end) {
          cache->Prefetch((*trace)[i + kPrefetchDistance].id);
        }
        hits[i - begin] = cache->Get((*trace)[i]) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(hits.data());
    benchmark::ClobberMemory();
    begin = end < view.size() ? end : 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kChunk));
}
BENCHMARK_CAPTURE(BM_AccessBatch, fifo_scalar, "fifo", false);
BENCHMARK_CAPTURE(BM_AccessBatch, fifo_batched, "fifo", true);
BENCHMARK_CAPTURE(BM_AccessBatch, lru_scalar, "lru", false);
BENCHMARK_CAPTURE(BM_AccessBatch, lru_batched, "lru", true);
BENCHMARK_CAPTURE(BM_AccessBatch, clock_scalar, "clock", false);
BENCHMARK_CAPTURE(BM_AccessBatch, clock_batched, "clock", true);
BENCHMARK_CAPTURE(BM_AccessBatch, sieve_scalar, "sieve", false);
BENCHMARK_CAPTURE(BM_AccessBatch, sieve_batched, "sieve", true);
BENCHMARK_CAPTURE(BM_AccessBatch, s3fifo_scalar, "s3fifo", false);
BENCHMARK_CAPTURE(BM_AccessBatch, s3fifo_batched, "s3fifo", true);
BENCHMARK_CAPTURE(BM_AccessBatch, s3fifo_d_scalar, "s3fifo-d", false);
BENCHMARK_CAPTURE(BM_AccessBatch, s3fifo_d_batched, "s3fifo-d", true);

BENCHMARK_CAPTURE(BM_PolicyGet, fifo, "fifo");
BENCHMARK_CAPTURE(BM_PolicyGet, lru, "lru");
BENCHMARK_CAPTURE(BM_PolicyGet, clock, "clock");
BENCHMARK_CAPTURE(BM_PolicyGet, sieve, "sieve");
BENCHMARK_CAPTURE(BM_PolicyGet, s3fifo, "s3fifo");
BENCHMARK_CAPTURE(BM_PolicyGet, s3fifo_d, "s3fifo-d");
BENCHMARK_CAPTURE(BM_PolicyGet, tinylfu, "tinylfu");
BENCHMARK_CAPTURE(BM_PolicyGet, arc, "arc");
BENCHMARK_CAPTURE(BM_PolicyGet, lirs, "lirs");
BENCHMARK_CAPTURE(BM_PolicyGet, twoq, "2q");
BENCHMARK_CAPTURE(BM_PolicyGet, slru, "slru");
BENCHMARK_CAPTURE(BM_PolicyGet, lecar, "lecar");
BENCHMARK_CAPTURE(BM_PolicyGet, lhd, "lhd");
BENCHMARK_CAPTURE(BM_PolicyGet, fifo_merge, "fifo-merge");

}  // namespace
}  // namespace s3fifo

BENCHMARK_MAIN();
