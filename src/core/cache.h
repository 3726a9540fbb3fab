// The eviction-policy interface all algorithms implement, mirroring the
// plugin architecture of libCacheSim (§5.1.2).
//
// A policy processes one request at a time through Get(), or a block of
// requests through GetBatch() — the batched entry point the simulators (and
// any future network front end) drive so the probe→update sequence can be
// software-pipelined per policy. The base class owns capacity accounting (in
// objects for slab-style simulation, or in bytes), the logical clock, and an
// optional eviction listener used by the analysis layer
// (frequency-at-eviction, eviction age, demotion studies).
#ifndef SRC_CORE_CACHE_H_
#define SRC_CORE_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/trace/request.h"
#include "src/trace/trace_view.h"

namespace s3fifo {

// How far ahead of the request being handled the batched loops prefetch the
// hash probe slot: GetBatch prefetches request i + kPrefetchDistance's slot
// while request i runs, overlapping table misses across the batch.
inline constexpr uint32_t kPrefetchDistance = 16;

struct CacheConfig {
  // Capacity in objects (count_based) or bytes (!count_based). Must be > 0.
  uint64_t capacity = 0;
  // Count-based simulation ignores object sizes — the paper's default, since
  // slab allocators evict within a size class (§5.1.2).
  bool count_based = true;
  // Policy-specific parameters, "key=value,key=value".
  std::string params;
  uint64_t seed = 42;
};

// Emitted whenever a policy removes a resident object from the cache
// (not for ghost-queue expiry, and not for moves between internal queues).
struct EvictionEvent {
  uint64_t id = 0;
  uint64_t size = 1;
  // Number of requests served for the object after (and excluding) the
  // insertion request. 0 => one-hit wonder at eviction (§3.1, Fig. 4).
  uint32_t access_count = 0;
  uint64_t insert_time = 0;
  uint64_t last_access_time = 0;
  uint64_t evict_time = 0;
  bool explicit_delete = false;  // removed by a kDelete request
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);
  virtual ~Cache() = default;

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Processes one request. Returns true on a cache hit. kDelete requests
  // remove the object and always return false.
  bool Get(const Request& req);

  // Processes requests [begin, end) of `view` in order, writing one byte per
  // request into `hits` (1 = hit, 0 = miss; kDelete requests write 0). The
  // contract is BIT-IDENTICAL results to calling Get() once per request —
  // batching only changes the instruction schedule, never a decision. The
  // default implementation is that scalar loop with the probe slot for
  // request i + kPrefetchDistance prefetched while request i is handled;
  // the hot policies (fifo/lru/clock/sieve/s3fifo) override AccessBatch to
  // run the same pipeline devirtualized, with the policy's Access inlined
  // into the block loop. `hits` must hold end - begin bytes. One exception:
  // a policy that RequiresNextAccess() (Belady) reads each request's next
  // access from the view's next-access column, which a bare Request does not
  // carry, so its scalar Get() treats every request as never reused; the two
  // agree on a view of a trace that is not annotated.
  void GetBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits);

  // Best-effort hint that `id` will be requested shortly. The prefetch-
  // batched simulation loops call this a fixed distance ahead of the request
  // being processed; FlatMap-backed policies pull the hash probe slot into
  // CPU cache. Must not change observable state or results.
  virtual void Prefetch(uint64_t id) const { (void)id; }

  // True if the object currently resides in the cache (would be a hit).
  virtual bool Contains(uint64_t id) const = 0;
  // Removes the object if resident (used for kDelete ops).
  virtual void Remove(uint64_t id) = 0;
  virtual std::string Name() const = 0;

  // Policies needing the trace's next-access column (Belady) override this;
  // the simulator checks it against Trace::annotated().
  virtual bool RequiresNextAccess() const { return false; }

  uint64_t capacity() const { return capacity_; }
  uint64_t occupied() const { return occupied_; }
  // Logical clock: number of requests processed so far.
  uint64_t clock() const { return clock_; }

  using EvictionListener = std::function<void(const EvictionEvent&)>;
  void set_eviction_listener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

 protected:
  // The policy's access path: lookup, metadata update, insert + evictions on
  // miss. Returns true on hit. kGet and kSet both route here (a kSet miss
  // admits the object, a kSet hit updates it in place).
  virtual bool Access(const Request& req) = 0;

  // The batched access path behind GetBatch. Overrides must replicate Get()
  // request-for-request: tick the clock once per request (TickClock), route
  // kDelete to Remove, and report the same hit bits — see the specialized
  // policies for the canonical shape. The base implementation loops Get().
  virtual void AccessBatch(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits);

  // Advances the logical clock exactly as Get() does — AccessBatch
  // overrides call this once per request before touching any state.
  uint64_t TickClock() { return ++clock_; }

  // Shared body for specialized AccessBatch overrides: the same per-request
  // pipeline as the default, but with Derived's Prefetch/Remove/Access
  // statically bound (the qualified calls devirtualize, so Access inlines
  // into the block loop) — no per-request virtual dispatch. A Derived
  // whose subclass overrides Access/Remove/Prefetch must give that subclass
  // its own AccessBatch (the qualified calls bypass further overrides;
  // virtual hooks *inside* Access still dispatch normally).
  template <typename Derived>
  void BatchLoop(const TraceView& view, uint64_t begin, uint64_t end, uint8_t* hits) {
    Derived* self = static_cast<Derived*>(this);
    const Request* reqs = view.AsRequests();
    for (uint64_t i = begin; i < end; ++i) {
      if (i + kPrefetchDistance < end) {
        self->Derived::Prefetch(reqs[i + kPrefetchDistance].id);
      }
      TickClock();
      const Request& req = reqs[i];
      if (req.op == OpType::kDelete) {
        self->Derived::Remove(req.id);
        hits[i - begin] = 0;
        continue;
      }
      hits[i - begin] = self->Derived::Access(req) ? 1 : 0;
    }
  }

  uint64_t SizeOf(const Request& req) const { return count_based_ ? 1 : req.size; }
  bool count_based() const { return count_based_; }

  void AddOccupied(uint64_t amount) { occupied_ += amount; }
  void SubOccupied(uint64_t amount) { occupied_ -= amount; }

  void NotifyEviction(const EvictionEvent& event) {
    if (eviction_listener_) {
      eviction_listener_(event);
    }
  }

 private:
  uint64_t capacity_;
  bool count_based_;
  uint64_t occupied_ = 0;
  uint64_t clock_ = 0;
  EvictionListener eviction_listener_;
};

}  // namespace s3fifo

#endif  // SRC_CORE_CACHE_H_
