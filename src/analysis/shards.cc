#include "src/analysis/shards.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/cache_factory.h"
#include "src/sim/simulator.h"
#include "src/util/hash.h"

namespace s3fifo {
namespace {

constexpr uint64_t kModulus = 1 << 24;

// Expands the user seed into the xor-salt applied to ids before hashing.
// Mix64 decorrelates consecutive seeds; the constant keeps the sampling
// stream independent from FlatMap's placement hash of the same ids.
uint64_t ShardsSalt(uint64_t hash_seed) { return Mix64(hash_seed) ^ 0x5bd1e9955bd1e995ULL; }

bool Sampled(uint64_t id, uint64_t salt, uint64_t threshold) {
  return (HashId(id ^ salt) & (kModulus - 1)) < threshold;
}

// Downsized per-size capacity. The floor of 2 keeps tiny samples from
// degenerating, but never exceeds the full-size capacity so a rate-1.0 run
// is the exact simulation.
uint64_t ScaledCapacity(uint64_t cache_size, double rate) {
  return std::max<uint64_t>(static_cast<uint64_t>(cache_size * rate),
                            std::min<uint64_t>(cache_size, 2));
}

}  // namespace

Trace ShardsSample(const Trace& trace, double rate, uint64_t hash_seed) {
  rate = std::clamp(rate, 1e-6, 1.0);
  const uint64_t threshold = static_cast<uint64_t>(rate * kModulus);
  const uint64_t salt = ShardsSalt(hash_seed);
  std::vector<Request> sampled;
  sampled.reserve(static_cast<size_t>(trace.size() * rate * 1.2) + 16);
  for (const Request& r : trace.requests()) {
    if (Sampled(r.id, salt, threshold)) {
      sampled.push_back(r);
    }
  }
  Trace out(std::move(sampled), trace.name() + "/shards");
  return out;
}

double ShardsMissRatio(const Trace& trace, const std::string& policy, uint64_t cache_size,
                       double rate, const CacheConfig& base_config) {
  Trace sampled = ShardsSample(trace, rate, base_config.seed);
  if (sampled.empty()) {
    return 0.0;
  }
  CacheConfig config = base_config;
  config.capacity = ScaledCapacity(cache_size, std::clamp(rate, 1e-6, 1.0));
  auto cache = CreateCache(policy, config);
  return Simulate(sampled, *cache).MissRatio();
}

MrcCurve ShardsMrc(const TraceView& view, const std::string& policy,
                   const std::vector<uint64_t>& sizes, double rate,
                   const CacheConfig& base_config, uint64_t warmup_requests) {
  rate = std::clamp(rate, 1e-6, 1.0);
  const uint64_t threshold = static_cast<uint64_t>(rate * kModulus);
  const uint64_t salt = ShardsSalt(base_config.seed);

  MrcCurve curve;
  curve.policy = policy;
  curve.exact = false;
  curve.sizes = sizes;
  if (sizes.empty()) {
    return curve;
  }

  std::vector<std::unique_ptr<Cache>> caches;
  caches.reserve(sizes.size());
  for (const uint64_t size : sizes) {
    CacheConfig config = base_config;
    config.capacity = ScaledCapacity(size, rate);
    caches.push_back(CreateCache(policy, config));
    if (caches.back()->RequiresNextAccess() && !view.annotated()) {
      throw std::invalid_argument("policy '" + policy +
                                  "' requires AnnotateNextAccess() on the trace");
    }
  }

  const size_t num_sizes = sizes.size();
  std::vector<SimResult> results(num_sizes);
  // Full-trace measured requests (the N of the N*R expected sample size);
  // warmup and deletes are excluded exactly as in Simulate().
  uint64_t total_measured = 0;
  uint64_t sampled_measured = 0;
  const uint64_t n = view.size();
  const Request* reqs = view.AsRequests();
  for (uint64_t i = 0; i < n; ++i) {
    const Request& req = reqs[i];
    const bool measure = i >= warmup_requests && req.op != OpType::kDelete;
    if (measure) {
      ++total_measured;
    }
    if (!Sampled(req.id, salt, threshold)) {
      continue;
    }
    if (measure) {
      ++sampled_measured;
    }
    for (size_t k = 0; k < num_sizes; ++k) {
      const bool hit = caches[k]->Get(req);
      if (!measure) {
        continue;
      }
      SimResult& r = results[k];
      ++r.requests;
      r.bytes_requested += req.size;
      if (hit) {
        ++r.hits;
      } else {
        ++r.misses;
        r.bytes_missed += req.size;
      }
    }
  }

  // FAST'15 expected-error correction: treat the shortfall between the
  // expected sample size and the actual one as extra hits, i.e. estimate
  // misses / (N*R) instead of misses / n_sampled.
  const double expected = static_cast<double>(total_measured) * rate;
  curve.results = results;
  curve.miss_ratios.reserve(num_sizes);
  for (size_t k = 0; k < num_sizes; ++k) {
    double mr;
    if (expected > 0.0 && sampled_measured > 0) {
      mr = std::clamp(static_cast<double>(results[k].misses) / expected, 0.0, 1.0);
    } else {
      mr = results[k].MissRatio();  // degenerate sample: report the raw ratio
    }
    curve.miss_ratios.push_back(mr);
  }
  return curve;
}

}  // namespace s3fifo
