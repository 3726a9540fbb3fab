#include "src/workload/zipf_workload.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "src/util/det_math.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace s3fifo {
namespace {

// Id-space layout: Zipf ranks map into [0, num_objects); new objects, scans
// and loops draw from disjoint high ranges so they never collide with the
// popularity-ranked universe.
constexpr uint64_t kNewObjectBase = 1ULL << 40;
constexpr uint64_t kScanBase = 1ULL << 41;
constexpr uint64_t kLoopBase = 1ULL << 42;

class SizeSampler {
 public:
  explicit SizeSampler(const ZipfWorkloadConfig& config) : config_(config) {
    if (config_.size_sigma > 0.0) {
      mu_ = DetLog(static_cast<double>(config_.size_mean_bytes)) -
            config_.size_sigma * config_.size_sigma / 2.0;
    }
  }

  // Sizes are a deterministic function of the id, so every request to an
  // object sees the same size (as in real traces). Box-Muller through
  // det_math (std::sqrt is IEEE-correctly-rounded, so it is already
  // portable) keeps the sampled bytes bit-identical across platforms.
  uint32_t SizeOf(uint64_t id) const {
    if (config_.size_sigma <= 0.0) {
      return config_.size_mean_bytes;
    }
    // Box-Muller on two id-derived uniforms.
    const double u1 =
        (static_cast<double>(Mix64(id ^ 0x6a09e667f3bcc909ULL) >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(Mix64(id ^ 0xbb67ae8584caa73bULL) >> 11) * 0x1.0p-53;
    const double z = std::sqrt(-2.0 * DetLog(u1)) * DetCos(6.283185307179586 * u2);
    const double size = DetExp(mu_ + config_.size_sigma * z);
    return static_cast<uint32_t>(
        std::clamp(size, static_cast<double>(config_.size_min_bytes),
                   static_cast<double>(config_.size_max_bytes)));
  }

 private:
  const ZipfWorkloadConfig& config_;
  double mu_ = 0.0;
};

}  // namespace

Trace GenerateZipfTrace(const ZipfWorkloadConfig& config) {
  Rng rng(config.seed);
  ZipfDistribution zipf(config.num_objects, config.alpha);
  SizeSampler sizes(config);

  std::vector<Request> reqs;
  reqs.reserve(config.num_requests);

  uint64_t next_new_object = kNewObjectBase + (config.seed << 20);
  uint64_t next_scan_id = kScanBase + (config.seed << 20);
  uint64_t next_loop_region = kLoopBase + (config.seed << 20);

  // Pending burst re-emissions: (due request index, id), soonest first.
  using Pending = std::pair<uint64_t, uint64_t>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>> bursts;

  // Residual state for in-progress scan / loop bursts.
  uint64_t scan_remaining = 0;
  uint64_t scan_cursor = 0;
  uint64_t loop_remaining = 0;
  uint64_t loop_cursor = 0;
  uint64_t loop_region_start = 0;
  const uint64_t loop_total =
      config.loop_length * std::max<uint32_t>(config.loop_repeats, 1);

  auto scrambled = [&](uint64_t raw) {
    if (!config.scramble_ids) {
      return raw;
    }
    // A fixed bijective-enough scramble: ids stay unique with overwhelming
    // probability given the sparse 64-bit space.
    return Mix64(raw ^ (config.seed * 0x9e3779b97f4a7c15ULL));
  };

  while (reqs.size() < config.num_requests) {
    Request r;
    if (!bursts.empty() && bursts.top().first <= reqs.size()) {
      r.id = bursts.top().second;
      bursts.pop();
      r.size = sizes.SizeOf(r.id);
      reqs.push_back(r);
      continue;
    }
    if (scan_remaining > 0) {
      r.id = scrambled(scan_cursor++);
      --scan_remaining;
    } else if (loop_remaining > 0) {
      r.id = scrambled(loop_region_start + (loop_cursor % config.loop_length));
      ++loop_cursor;
      --loop_remaining;
    } else {
      const double dice = rng.NextDouble();
      if (dice < config.scan_fraction && config.scan_length > 0) {
        scan_cursor = next_scan_id;
        next_scan_id += config.scan_length;
        scan_remaining = config.scan_length;
        r.id = scrambled(scan_cursor++);
        --scan_remaining;
      } else if (dice < config.scan_fraction + config.loop_fraction && config.loop_length > 0) {
        loop_region_start = next_loop_region;
        next_loop_region += config.loop_length;
        loop_cursor = 0;
        loop_remaining = loop_total;
        r.id = scrambled(loop_region_start);
        ++loop_cursor;
        --loop_remaining;
      } else if (dice <
                 config.scan_fraction + config.loop_fraction + config.new_object_fraction) {
        r.id = scrambled(next_new_object++);
      } else {
        // Zipf rank 1..n mapped into [0, n).
        r.id = scrambled(zipf.Sample(rng) - 1);
        const double op_dice = rng.NextDouble();
        if (op_dice < config.delete_fraction) {
          r.op = OpType::kDelete;
        } else if (op_dice < config.delete_fraction + config.write_fraction) {
          r.op = OpType::kSet;
        }
        if (r.op != OpType::kDelete && config.burst_fraction > 0.0 &&
            rng.NextBool(config.burst_fraction)) {
          const uint64_t gap = 1 + rng.NextBounded(std::max<uint32_t>(config.burst_gap_max, 1));
          bursts.emplace(reqs.size() + gap, r.id);
        }
      }
    }
    r.size = sizes.SizeOf(r.id);
    reqs.push_back(r);
  }

  return Trace(std::move(reqs));
}

}  // namespace s3fifo
