#include "src/check/invariants.h"

#include <algorithm>
#include <sstream>

#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/policies/s3fifo.h"
#include "src/sim/simulator.h"
#include "src/trace/next_access.h"
#include "src/trace/trace.h"
#include "src/trace/trace_view.h"

namespace s3fifo {
namespace check {
namespace {

std::string At(uint64_t index, const Request& req) {
  std::ostringstream out;
  out << " at request " << index << " (id=" << req.id << " size=" << req.size
      << " op=" << static_cast<int>(req.op) << ")";
  return out.str();
}

}  // namespace

InvariantReport CheckRequestInvariants(std::string_view policy, const CacheConfig& config,
                                       const std::vector<Request>& requests,
                                       uint64_t max_violations) {
  auto cache = CreateCache(policy, config);
  auto* s3 = dynamic_cast<S3FifoCache*>(cache.get());

  InvariantReport report;
  auto violate = [&](const std::string& message) {
    if (report.violations.size() < max_violations) {
      report.violations.push_back(message);
    }
  };

  for (uint64_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const bool hit = cache->Get(req);

    if (req.op == OpType::kDelete) {
      if (hit) {
        violate("delete reported as hit" + At(i, req));
      }
      if (cache->Contains(req.id)) {
        violate("object resident after explicit delete" + At(i, req));
      }
    } else {
      ++report.requests;
      if (hit) {
        ++report.hits;
        // With uniform sizes a hit never triggers eviction, so the object
        // must still be resident. (Byte mode: a size change on hit may evict
        // anything, including the accessed object itself.)
        if (config.count_based && !cache->Contains(req.id)) {
          violate("object non-resident after count-based hit" + At(i, req));
        }
      } else {
        ++report.misses;
      }
    }

    if (cache->occupied() > cache->capacity()) {
      std::ostringstream out;
      out << "occupied " << cache->occupied() << " exceeds capacity " << cache->capacity()
          << At(i, req);
      violate(out.str());
    }
    if (s3 != nullptr && s3->ghost_size() > s3->ghost_capacity_entries()) {
      std::ostringstream out;
      out << "ghost entries " << s3->ghost_size() << " exceed bound "
          << s3->ghost_capacity_entries() << At(i, req);
      violate(out.str());
    }
  }

  if (report.hits + report.misses != report.requests) {
    violate("hit/miss conservation broken");  // unreachable by construction
  }
  return report;
}

std::string CheckDeterministicReplay(std::string_view policy, const CacheConfig& config,
                                     const std::vector<Request>& requests) {
  uint64_t occupied[2] = {0, 0};
  std::vector<bool> hits[2];
  for (int run = 0; run < 2; ++run) {
    auto cache = CreateCache(policy, config);
    hits[run].reserve(requests.size());
    for (const Request& req : requests) {
      hits[run].push_back(cache->Get(req));
    }
    occupied[run] = cache->occupied();
  }
  if (hits[0] != hits[1]) {
    for (uint64_t i = 0; i < requests.size(); ++i) {
      if (hits[0][i] != hits[1][i]) {
        return "replay diverged" + At(i, requests[i]);
      }
    }
  }
  if (occupied[0] != occupied[1]) {
    std::ostringstream out;
    out << "replay final occupancy differs: " << occupied[0] << " vs " << occupied[1];
    return out.str();
  }
  return "";
}

std::string CheckBeladyLowerBound(std::string_view policy, const CacheConfig& config,
                                  const std::vector<Request>& requests) {
  if (!config.count_based) {
    return "belady bound requires a count-based config";
  }
  for (const Request& req : requests) {
    if (req.op == OpType::kDelete) {
      return "belady bound requires a get/set-only trace";
    }
  }
  Trace trace(requests, "belady-bound");
  AnnotateNextAccess(trace);

  auto belady = CreateCache("belady", config);
  auto subject = CreateCache(policy, config);
  const SimResult opt = Simulate(trace, *belady);
  const SimResult got = Simulate(trace, *subject);
  if (opt.misses > got.misses) {
    std::ostringstream out;
    out << "belady missed more than " << policy << ": " << opt.misses << " > " << got.misses
        << " (optimality violated)";
    return out.str();
  }
  return "";
}

std::string CheckBatchedParity(std::string_view policy, const CacheConfig& config,
                               const std::vector<Request>& requests, uint32_t batch_size) {
  if (batch_size == 0) {
    return "batch_size must be non-zero";
  }
  const Trace trace(requests, "batched-parity");
  const TraceView view = TraceView::Borrow(trace);
  auto scalar = CreateCache(policy, config);
  auto batched = CreateCache(policy, config);
  std::vector<uint8_t> hits(batch_size);
  const uint64_t n = view.size();
  for (uint64_t begin = 0; begin < n; begin += batch_size) {
    const uint64_t end = std::min<uint64_t>(begin + batch_size, n);
    batched->GetBatch(view, begin, end, hits.data());
    for (uint64_t i = begin; i < end; ++i) {
      const Request& req = requests[i];
      const bool scalar_hit = scalar->Get(req);
      if ((hits[i - begin] != 0) != scalar_hit) {
        std::ostringstream out;
        out << policy << " batched hit bit " << (hits[i - begin] != 0 ? 1 : 0)
            << " != scalar " << (scalar_hit ? 1 : 0) << At(i, req);
        return out.str();
      }
    }
    // Both caches have now processed the same prefix; their residency sets
    // must agree on every id the chunk touched.
    for (uint64_t i = begin; i < end; ++i) {
      const Request& req = requests[i];
      if (batched->Contains(req.id) != scalar->Contains(req.id)) {
        std::ostringstream out;
        out << policy << " residency diverged at batch ending " << end << At(i, req);
        return out.str();
      }
    }
    if (batched->occupied() != scalar->occupied()) {
      std::ostringstream out;
      out << policy << " occupancy diverged after batch ending at " << end << ": batched "
          << batched->occupied() << " vs scalar " << scalar->occupied();
      return out.str();
    }
  }
  if (batched->clock() != scalar->clock()) {
    std::ostringstream out;
    out << policy << " clock diverged: batched " << batched->clock() << " vs scalar "
        << scalar->clock();
    return out.str();
  }
  return "";
}

std::string CheckMrcMatchesBruteForce(std::string_view policy, const CacheConfig& config,
                                      const std::vector<Request>& requests,
                                      const std::vector<uint64_t>& sizes) {
  const std::string name(policy);
  if (!MrcEngineSupports(name, config)) {
    return "one-pass MRC engine does not support '" + name + "'";
  }
  const Trace trace(requests, "mrc-differential");
  const TraceView view = TraceView::Borrow(trace);
  const MrcCurve onepass = OnePassMrc(view, name, sizes, config);
  const std::vector<SimResult> brute = ComputeMrcResults(view, name, sizes, config);
  for (size_t i = 0; i < sizes.size(); ++i) {
    const SimResult& a = onepass.results[i];
    const SimResult& b = brute[i];
    if (a.requests != b.requests || a.hits != b.hits || a.misses != b.misses ||
        a.bytes_requested != b.bytes_requested || a.bytes_missed != b.bytes_missed) {
      std::ostringstream out;
      out << name << " one-pass diverged from brute force at size " << sizes[i]
          << ": onepass(hits=" << a.hits << " misses=" << a.misses << ") vs brute(hits="
          << b.hits << " misses=" << b.misses << ")";
      return out.str();
    }
  }
  return "";
}

std::string CheckMrcMonotone(std::string_view policy, const CacheConfig& config,
                             const std::vector<Request>& requests,
                             const std::vector<uint64_t>& sizes, uint64_t slack) {
  const std::string name(policy);
  if (!MrcEngineSupports(name, config)) {
    return "one-pass MRC engine does not support '" + name + "'";
  }
  std::vector<uint64_t> sorted = sizes;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const Trace trace(requests, "mrc-monotone");
  const TraceView view = TraceView::Borrow(trace);
  const MrcCurve curve = OnePassMrc(view, name, sorted, config);
  if (curve.results.empty()) {
    return "";
  }
  if (slack == UINT64_MAX) {
    slack = std::max<uint64_t>(8, curve.results.front().requests / 50);
  }
  for (size_t i = 1; i < sorted.size(); ++i) {
    const uint64_t prev = curve.results[i - 1].misses;
    const uint64_t cur = curve.results[i].misses;
    if (cur > prev + slack) {
      std::ostringstream out;
      out << name << " misses grew with cache size beyond the Belady-anomaly slack: size "
          << sorted[i - 1] << " -> " << sorted[i] << " took misses " << prev << " -> " << cur
          << " (slack " << slack << ")";
      return out.str();
    }
  }
  return "";
}

std::string CheckMrcGridRefinement(std::string_view policy, const CacheConfig& config,
                                   const std::vector<Request>& requests,
                                   const std::vector<uint64_t>& sizes) {
  const std::string name(policy);
  if (!MrcEngineSupports(name, config)) {
    return "one-pass MRC engine does not support '" + name + "'";
  }
  std::vector<uint64_t> base = sizes;
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  // Refine: wedge a midpoint between every adjacent pair.
  std::vector<uint64_t> refined;
  for (size_t i = 0; i < base.size(); ++i) {
    refined.push_back(base[i]);
    if (i + 1 < base.size()) {
      const uint64_t mid = base[i] + (base[i + 1] - base[i]) / 2;
      if (mid != base[i] && mid != base[i + 1]) {
        refined.push_back(mid);
      }
    }
  }
  const Trace trace(requests, "mrc-refinement");
  const TraceView view = TraceView::Borrow(trace);
  const MrcCurve coarse = OnePassMrc(view, name, base, config);
  const MrcCurve fine = OnePassMrc(view, name, refined, config);
  size_t fi = 0;
  for (size_t i = 0; i < base.size(); ++i) {
    while (fi < refined.size() && refined[fi] != base[i]) {
      ++fi;
    }
    const SimResult& a = coarse.results[i];
    const SimResult& b = fine.results[fi];
    if (a.hits != b.hits || a.misses != b.misses || a.bytes_missed != b.bytes_missed) {
      std::ostringstream out;
      out << name << " grid refinement changed the result at size " << base[i] << ": coarse(hits="
          << a.hits << " misses=" << a.misses << ") vs refined(hits=" << b.hits
          << " misses=" << b.misses << ")";
      return out.str();
    }
  }
  return "";
}

}  // namespace check
}  // namespace s3fifo
