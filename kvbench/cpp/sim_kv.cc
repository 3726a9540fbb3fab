// sim-kv: the paper's offline use — miss ratios of several policies and
// sizes, an exact MRC, and a flash-cache pass — over one generated KV
// trace. No threads, no sockets: changes to the concurrent cache or the
// server predict no movement here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kvbench/cpp/workloads.h"
#include "src/analysis/mrc_engine.h"
#include "src/core/cache_factory.h"
#include "src/flash/admission.h"
#include "src/flash/log_flash_cache.h"
#include "src/sim/multi_sim.h"
#include "src/sim/simulator.h"
#include "src/trace/trace_view.h"
#include "src/workload/zipf_workload.h"

namespace kvbench {
namespace {

using s3fifo::SimResult;

constexpr uint64_t kObjects = 1000000;
constexpr uint64_t kRequests = 500000;
constexpr const char* kPolicies[] = {"fifo", "lru", "clock", "sieve", "s3fifo", "s3fifo-d"};
constexpr double kFractions[] = {0.01, 0.10};
constexpr size_t kMrcPoints = 32;
// Flash requests timed together; their mean is one service-time sample.
constexpr uint32_t kFlashChunk = 64;
// The flash pass of a job runs in this many slices between the other stages.
constexpr size_t kFlashSlices = 4;

s3fifo::ZipfWorkloadConfig TraceConfig(uint64_t seed) {
  s3fifo::ZipfWorkloadConfig c;
  c.num_objects = kObjects;
  c.num_requests = kRequests;
  c.alpha = 1.0;
  c.burst_fraction = 0.20;
  c.write_fraction = 0.10;
  c.delete_fraction = 0.02;
  // Scans of 16 ids starting with probability 0.0033 put ~5% of requests
  // in scans.
  c.scan_fraction = 0.0033;
  c.scan_length = 16;
  c.size_mean_bytes = 4096;
  c.size_sigma = 1.0;
  c.seed = seed;
  return c;
}

// Counts the flash admission decisions of the policy it wraps.
class CountingAdmission : public s3fifo::AdmissionPolicy {
 public:
  explicit CountingAdmission(std::unique_ptr<s3fifo::AdmissionPolicy> inner)
      : inner_(std::move(inner)) {}
  bool Admit(const s3fifo::AdmissionCandidate& c) override {
    ++candidates;
    const bool admit = inner_->Admit(c);
    admitted += admit ? 1 : 0;
    return admit;
  }
  void OnRejectedReuse(uint64_t id, uint64_t delay) override { inner_->OnRejectedReuse(id, delay); }
  std::string Name() const override { return inner_->Name(); }

  uint64_t candidates = 0;
  uint64_t admitted = 0;

 private:
  std::unique_ptr<s3fifo::AdmissionPolicy> inner_;
};

struct FlashOutcome {
  s3fifo::LogFlashCacheStats stats;
  s3fifo::SegmentLogStats log;
  s3fifo::SetStoreStats sets;
  uint64_t set_bytes = 0;
  uint64_t candidates = 0;
  uint64_t admitted = 0;
  double write_amp = 0.0;
};

struct JobOutcome {
  SimResult sim;
  std::vector<SimResult> multi;
  std::vector<SimResult> mrc;
  FlashOutcome flash;
  int64_t ns = 0;
  int64_t cpu_ns = 0;
};

bool Same(const SimResult& a, const SimResult& b) {
  return a.requests == b.requests && a.hits == b.hits && a.misses == b.misses &&
         a.bytes_requested == b.bytes_requested && a.bytes_missed == b.bytes_missed;
}

bool SameFlash(const FlashOutcome& a, const FlashOutcome& b) {
  return a.stats.misses == b.stats.misses && a.stats.requests == b.stats.requests &&
         a.log.device_bytes_written == b.log.device_bytes_written &&
         a.sets.device_bytes_written == b.sets.device_bytes_written && a.admitted == b.admitted;
}

s3fifo::LogFlashCacheConfig FlashConfig(uint64_t footprint_bytes) {
  const uint64_t flash_bytes = footprint_bytes / 10;
  const uint64_t set_budget = flash_bytes / 8;
  s3fifo::LogFlashCacheConfig c;
  c.dram_capacity_bytes = std::max<uint64_t>(flash_bytes / 100, 16 << 10);
  c.dram_discipline = s3fifo::DramDiscipline::kSmallFifo;
  c.log.segment_bytes = 256 * 1024;
  c.log.ordering = s3fifo::LogOrdering::kFifo;
  c.log.gc_readmit = true;
  c.log.num_segments = std::max<uint64_t>((flash_bytes - set_budget) / c.log.segment_bytes, 1);
  c.small_object_threshold = 1024;
  c.set_store.set_bytes = 4096;
  c.set_store.num_sets = std::max<uint64_t>(set_budget / 4096, 1);
  return c;
}

// kMrcPoints - 2 log-spaced sizes between 0.1% and 40% of the footprint plus
// the 1% and 10% points the other stages use, sorted and distinct.
std::vector<uint64_t> MrcGrid(uint64_t footprint, uint64_t cap1, uint64_t cap10) {
  std::vector<uint64_t> grid = {cap1, cap10};
  const double lo = std::log(std::max(1.0, 0.001 * static_cast<double>(footprint)));
  const double hi = std::log(0.40 * static_cast<double>(footprint));
  for (size_t i = 0; i < kMrcPoints - 2; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / (kMrcPoints - 3);
    grid.push_back(std::max<uint64_t>(1, static_cast<uint64_t>(std::exp(x))));
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

// Runs `view[begin, end)` through the flash cache in timed chunks of
// kFlashChunk requests; the chunks' mean service times go into `times`.
void FlashSlice(s3fifo::LogStructuredFlashCache& flash, const s3fifo::TraceView& view,
                size_t begin, size_t end, uint64_t job_id, SpanLog* log, ServiceTimes* times) {
  const s3fifo::Request* reqs = view.AsRequests();
  for (; begin < end; begin += kFlashChunk) {
    const size_t stop = std::min<size_t>(begin + kFlashChunk, end);
    ScopedSpan span(log, "flash.Get", job_id);
    const int64_t t0 = NowNs();
    for (size_t i = begin; i < stop; ++i) {
      flash.Get(reqs[i]);
    }
    times->Add(static_cast<double>(NowNs() - t0) / static_cast<double>(stop - begin),
               static_cast<uint32_t>(stop - begin));
  }
}

// One job. The flash pass is split into kFlashSlices consecutive slices of
// the trace, run before, between and after the other stages on the same
// flash cache (so its results equal one uninterrupted pass); each slice's
// service times are one window of `quantiles`, so a job samples the flash
// cache at several moments rather than one.
JobOutcome RunJob(const s3fifo::TraceView& view, uint64_t footprint_bytes, uint64_t cap1,
                  uint64_t cap10, const std::vector<uint64_t>& grid, uint64_t job_id,
                  SpanLog* log, WindowQuantiles* quantiles) {
  JobOutcome out;
  const int64_t start = NowNs();
  const int64_t start_cpu = ProcessCpuNs();
  ScopedSpan job_span(log, "bench.sim_job", job_id);
  auto admission =
      std::make_unique<CountingAdmission>(std::make_unique<s3fifo::S3FifoAdmission>(1));
  CountingAdmission* counts = admission.get();
  s3fifo::LogStructuredFlashCache flash(FlashConfig(footprint_bytes), std::move(admission));
  size_t slice = 0;
  auto next_flash_slice = [&] {
    ServiceTimes times;
    FlashSlice(flash, view, view.size() * slice / kFlashSlices,
               view.size() * (slice + 1) / kFlashSlices, job_id, log, &times);
    ++slice;
    if (quantiles != nullptr) {
      quantiles->Add(times);
    }
  };

  next_flash_slice();
  {
    ScopedSpan span(log, "sim.Simulate", job_id);
    auto cache = s3fifo::CreateCache("s3fifo", {cap10, true, "", 42});
    out.sim = s3fifo::Simulate(view, *cache);
  }
  next_flash_slice();
  {
    ScopedSpan span(log, "sim.MultiSimulate", job_id);
    std::vector<std::unique_ptr<s3fifo::Cache>> caches;
    for (const char* policy : kPolicies) {
      for (double f : kFractions) {
        caches.push_back(s3fifo::CreateCache(policy, {f < 0.05 ? cap1 : cap10, true, "", 42}));
      }
    }
    out.multi = s3fifo::MultiSimulate(view, caches);
  }
  next_flash_slice();
  {
    ScopedSpan span(log, "analysis.OnePassMrc", job_id);
    out.mrc = s3fifo::OnePassMrc(view, "s3fifo", grid).results;
  }
  next_flash_slice();
  out.flash.stats = flash.stats();
  out.flash.log = flash.log_stats();
  out.flash.sets = flash.set_stats();
  out.flash.set_bytes = flash.sets().set_bytes();
  out.flash.candidates = counts->candidates;
  out.flash.admitted = counts->admitted;
  out.flash.write_amp = flash.WriteAmplification();
  out.ns = NowNs() - start;
  out.cpu_ns = ProcessCpuNs() - start_cpu;
  return out;
}

void CheckJob(const JobOutcome& job, const JobOutcome* first, size_t multi_index,
              size_t grid_index, Result* result) {
  if (!Same(job.sim, job.multi[multi_index])) {
    result->Fail("sim-kv: Simulate and MultiSimulate differ for s3fifo at 10%");
  }
  if (!Same(job.sim, job.mrc[grid_index])) {
    result->Fail("sim-kv: Simulate and OnePassMrc differ for s3fifo at 10%");
  }
  const s3fifo::SegmentLogStats& log = job.flash.log;
  if (log.device_bytes_written != log.admitted_bytes + log.gc_rewrite_bytes) {
    result->Fail("sim-kv: log device bytes != admitted + GC rewrite");
  }
  const s3fifo::SetStoreStats& sets = job.flash.sets;
  if (sets.device_bytes_written != sets.page_writes * job.flash.set_bytes) {
    result->Fail("sim-kv: set device bytes != page writes x set bytes");
  }
  if (job.flash.stats.requests == 0 || job.flash.admitted == 0) {
    result->Fail("sim-kv: flash pass served or admitted nothing");
  }
  if (first != nullptr) {
    bool same = Same(job.sim, first->sim) && SameFlash(job.flash, first->flash);
    for (size_t i = 0; same && i < job.multi.size(); ++i) {
      same = Same(job.multi[i], first->multi[i]);
    }
    for (size_t i = 0; same && i < job.mrc.size(); ++i) {
      same = Same(job.mrc[i], first->mrc[i]);
    }
    if (!same) {
      result->Fail("sim-kv: a repeated job on the same trace gave different results");
    }
  }
}

}  // namespace

Result RunSimKv(const Options& options) {
  Result result;
  SpanLog log(0);
  SpanLog* tlog = options.trace ? &log : nullptr;

  const double measure_s = (options.trace ? options.seconds / 2 : options.seconds) / kRounds;
  const double traced_s = options.trace ? options.seconds / 2 / kRounds : 0.0;
  std::vector<double> setup_s;
  WindowQuantiles quantiles;
  WindowRates rates[2];  // untraced, traced
  JobOutcome first;
  JobOutcome last;
  uint64_t job_id = 0;
  size_t requests = 0;
  size_t grid_size = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Setup: generate the trace, compute its footprint, wrap it in a view.
    const int64_t t0 = NowNs();
    s3fifo::Trace trace;
    {
      ScopedSpan span(tlog, "trace.GenerateZipfTrace", round);
      trace = s3fifo::GenerateZipfTrace(TraceConfig(options.seed));
    }
    uint64_t footprint = 0;
    uint64_t footprint_bytes = 0;
    s3fifo::TraceView view;
    {
      ScopedSpan span(tlog, "trace.Stats", round);
      footprint = trace.Stats().num_objects;
      footprint_bytes = trace.Stats().footprint_bytes;
      view = s3fifo::TraceView::Borrow(trace);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const uint64_t cap1 = std::max<uint64_t>(footprint / 100, 1);
    const uint64_t cap10 = std::max<uint64_t>(footprint / 10, 1);
    const std::vector<uint64_t> grid = MrcGrid(footprint, cap1, cap10);
    const size_t grid_index = std::find(grid.begin(), grid.end(), cap10) - grid.begin();
    // MultiSimulate's caches run policy-major: s3fifo is kPolicies[4].
    const size_t multi_index = 4 * std::size(kFractions) + 1;
    const uint64_t configs = 1 + std::size(kPolicies) * std::size(kFractions) + grid.size() + 1;
    requests = view.size();
    grid_size = grid.size();
    if (round == 0) {
      std::fprintf(stderr,
                   "sim-kv: %zu requests, footprint %llu objects / %.1f MiB, %zu MRC sizes\n",
                   view.size(), static_cast<unsigned long long>(footprint),
                   footprint_bytes / 1048576.0, grid.size());
    }

    // Jobs run back to back until the round's time is up, stopping early
    // rather than overrunning by more than half a job; a traced run spends
    // the first half of each round untraced and the second half traced.
    for (int phase = 0; phase < 2; ++phase) {
      const double seconds = phase == 0 ? measure_s : traced_s;
      if (seconds <= 0.0) {
        break;
      }
      const int64_t phase_end = NowNs() + static_cast<int64_t>(seconds * 1e9);
      int64_t job_ns = 0;
      do {
        JobOutcome job = RunJob(view, footprint_bytes, cap1, cap10, grid, ++job_id,
                                phase == 1 ? &log : nullptr, phase == 0 ? &quantiles : nullptr);
        CheckJob(job, job_id == 1 ? nullptr : &first, multi_index, grid_index, &result);
        result.attempted += configs * view.size();
        rates[phase].Add(configs * view.size(), job.ns, job.cpu_ns);
        job_ns = job.ns;
        if (job_id == 1) {
          first = job;
        }
        last = std::move(job);
      } while (NowNs() + job_ns / 2 < phase_end);
    }
  }

  const double hit_ratio = 1.0 - first.sim.MissRatio();
  std::fprintf(stderr,
               "sim-kv: %zu jobs, s3fifo@10%% hit ratio %.6f, flash WA %.4f, flash service "
               "time: median over %zu flash slices of each slice's quantiles, %llu samples in "
               "all\n",
               rates[0].cpu.size() + rates[1].cpu.size(), hit_ratio, first.flash.write_amp,
               quantiles.p50.size(), static_cast<unsigned long long>(quantiles.samples));

  if (!options.trace) {
    AddEndToEnd(rates[0], quantiles, hit_ratio, setup_s, &result);
    return result;
  }

  const std::vector<SpanTotals> totals = MergeTotals({&log});
  const double n = static_cast<double>(requests);
  const double jobs = static_cast<double>(Count(totals, "sim.Simulate"));
  std::map<std::string, double> layer;
  layer["trace.generate_ns_per_req"] =
      TotalNs(totals, "trace.GenerateZipfTrace") / (kRounds * n);
  layer["sim.simulate_ns_per_req"] = TotalNs(totals, "sim.Simulate") / (jobs * n);
  layer["sim.multi_ns_per_req_cache"] = TotalNs(totals, "sim.MultiSimulate") / (jobs * n * 12);
  layer["analysis.mrc_ns_per_req_size"] =
      TotalNs(totals, "analysis.OnePassMrc") / (jobs * n * static_cast<double>(grid_size));
  layer["flash.get_ns_per_req"] = TotalNs(totals, "flash.Get") / (jobs * n);
  const uint64_t admitted_bytes = last.flash.log.admitted_bytes + last.flash.sets.admitted_bytes;
  layer["flash.gc_rewrite_per_admitted_byte"] =
      admitted_bytes == 0 ? 0.0
                          : static_cast<double>(last.flash.log.gc_rewrite_bytes) / admitted_bytes;
  layer["flash.admit_share"] =
      last.flash.candidates == 0
          ? 0.0
          : static_cast<double>(last.flash.admitted) / static_cast<double>(last.flash.candidates);
  layer["flash.write_amp"] = last.flash.write_amp;
  ReportTrace(options, {&log}, rates[0], rates[1], &layer);
  AddLayerMetrics(layer, &result);
  return result;
}

}  // namespace kvbench
