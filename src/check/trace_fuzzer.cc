#include "src/check/trace_fuzzer.h"

#include <algorithm>

#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace check {
namespace {

// Scan keys live far above the hot universe so they never alias it.
constexpr uint64_t kScanBase = 1ULL << 40;

}  // namespace

std::vector<Request> GenerateFuzzRequests(const FuzzConfig& config) {
  Rng rng(config.seed);
  ZipfDistribution zipf(std::max<uint64_t>(config.key_space, 1), config.alpha);

  const uint32_t normal_max = static_cast<uint32_t>(
      std::clamp<uint64_t>(config.capacity / 8, 1, 0x7fffffff));
  const uint32_t oversize_span = static_cast<uint32_t>(
      std::clamp<uint64_t>(config.capacity, 1, 0x7fffffff));

  // The usual size of an object is a stable function of its id, like real
  // traces; resize events overwrite it with a fresh draw.
  auto base_size = [&](uint64_t id) {
    return static_cast<uint32_t>(1 + Mix64(id ^ (config.seed * 0x9e3779b97f4a7c15ULL)) %
                                         normal_max);
  };

  std::vector<Request> reqs;
  reqs.reserve(config.num_requests);
  uint64_t next_scan_key = kScanBase + (config.seed << 20);
  uint64_t scan_remaining = 0;

  while (reqs.size() < config.num_requests) {
    Request r;
    if (scan_remaining > 0) {
      --scan_remaining;
      r.id = next_scan_key++;
      r.size = base_size(r.id);
      reqs.push_back(r);
      continue;
    }
    if (rng.NextBool(config.p_scan) && config.scan_length > 0) {
      scan_remaining = config.scan_length;
      continue;
    }

    r.id = zipf.Sample(rng) - 1;  // rank 1..n -> [0, n)
    const double op_dice = rng.NextDouble();
    if (op_dice < config.p_delete) {
      r.op = OpType::kDelete;
    } else if (op_dice < config.p_delete + config.p_set) {
      r.op = OpType::kSet;
    }

    const double size_dice = rng.NextDouble();
    if (size_dice < config.p_zero_size) {
      r.size = 0;
    } else if (size_dice < config.p_zero_size + config.p_oversized) {
      r.size = static_cast<uint32_t>(
          std::min<uint64_t>(config.capacity + 1 + rng.NextBounded(oversize_span),
                             0xffffffffULL));
    } else if (size_dice < config.p_zero_size + config.p_oversized + config.p_resize) {
      r.size = 1 + static_cast<uint32_t>(rng.NextBounded(normal_max));
    } else {
      r.size = base_size(r.id);
    }
    reqs.push_back(r);
  }

  return reqs;
}

std::vector<Request> GenerateFlashFuzzRequests(const FlashFuzzConfig& config) {
  Rng rng(config.seed);
  ZipfDistribution zipf(std::max<uint64_t>(config.key_space, 1), config.alpha);

  const uint64_t segment_bytes = std::max<uint64_t>(config.segment_bytes, 1);
  // "Normal" log objects: a spread that packs several per segment but still
  // forces frequent seals.
  const uint32_t log_max = static_cast<uint32_t>(
      std::clamp<uint64_t>(segment_bytes / 4, 1, 0x7fffffff));
  const uint32_t small_max = static_cast<uint32_t>(std::clamp<uint64_t>(
      config.small_object_threshold > 0 ? config.small_object_threshold - 1 : 1, 1,
      0x7fffffff));

  auto draw_size = [&](uint64_t id, bool fresh) -> uint32_t {
    const double dice = rng.NextDouble();
    double edge = config.p_oversize;
    if (dice < edge) {
      return static_cast<uint32_t>(std::min<uint64_t>(
          segment_bytes + 1 + rng.NextBounded(segment_bytes), 0xffffffffULL));
    }
    edge += config.p_near_segment;
    if (dice < edge) {
      // Within 0..3 bytes of a full segment: exercises the seal boundary and,
      // with a small set store, whole-set evictions.
      const uint64_t slack = rng.NextBounded(4);
      return static_cast<uint32_t>(
          std::min<uint64_t>(segment_bytes - std::min(segment_bytes - 1, slack),
                             0xffffffffULL));
    }
    if (config.small_object_threshold > 0) {
      edge += config.p_small;
      if (dice < edge) {
        return 1 + static_cast<uint32_t>(Mix64(id * 3 + fresh) % small_max);
      }
    }
    if (fresh) {
      return 1 + static_cast<uint32_t>(rng.NextBounded(log_max));
    }
    // Stable per-id size, like real traces.
    return 1 + static_cast<uint32_t>(
                   Mix64(id ^ (config.seed * 0x9e3779b97f4a7c15ULL)) % log_max);
  };

  std::vector<Request> reqs;
  reqs.reserve(config.num_requests);
  for (uint64_t i = 0; i < config.num_requests; ++i) {
    Request r;
    r.id = zipf.Sample(rng) - 1;
    const double op_dice = rng.NextDouble();
    if (op_dice < config.p_delete) {
      r.op = OpType::kDelete;
    } else if (op_dice < config.p_delete + config.p_set) {
      r.op = OpType::kSet;
    }
    const bool fresh = rng.NextBool(config.p_resize_size);
    r.size = draw_size(r.id, fresh);
    reqs.push_back(r);
  }
  return reqs;
}

}  // namespace check
}  // namespace s3fifo
