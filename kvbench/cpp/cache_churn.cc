// cache-churn: one thread drives ConcurrentS3Fifo directly in a closed
// loop — gets in batches of 64 through GetBatch, with sets and deletes
// interleaved. The cache holds 1% of the key universe, so two gets in five
// miss: admission, the eviction gate, EBR retirement and the ghost table
// dominate, with writes beside reads. The loop is written for any number of
// threads; it runs one because two were bimodal from run to run on a
// 4-vCPU guest (see kvbench/README.md).
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "kvbench/cpp/payload.h"
#include "kvbench/cpp/workloads.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/workload/zipf_workload.h"

namespace kvbench {
namespace {

constexpr uint64_t kObjects = 1000000;
constexpr uint64_t kCapacity = kObjects / 100;
constexpr unsigned kThreads = 1;
// Each thread cycles through its own generated stream of this many ops.
constexpr uint64_t kStreamOps = 1000000;
constexpr uint32_t kBatch = 64;
// In a traced phase, one get in this many is issued as a timed scalar Get.
constexpr uint32_t kScalarSampleEvery = 64;
constexpr double kWarmupSeconds = 0.5;
// Throughput, p50 and p90 are medians over intervals of this length.
constexpr double kIntervalSeconds = 0.5;

enum Phase : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

struct Inputs {
  std::vector<KeyOp> streams[kThreads];
  uint32_t distinct = 0;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  std::unordered_map<uint64_t, uint32_t> dense;
  dense.reserve(kObjects);
  for (unsigned t = 0; t < kThreads; ++t) {
    s3fifo::ZipfWorkloadConfig c;
    c.num_objects = kObjects;
    c.num_requests = kStreamOps;
    c.alpha = 1.0;
    c.write_fraction = 0.10;
    c.delete_fraction = 0.02;
    c.size_mean_bytes = kValueSize;
    c.seed = seed * kThreads + t;
    AppendKeyOps(s3fifo::GenerateZipfTrace(c), &dense, &in.streams[t]);
  }
  in.distinct = static_cast<uint32_t>(dense.size());
  return in;
}

// Copies each hit's bytes out while the cache guarantees they are readable;
// they are checked after the batch, outside its timed interval.
class CopySink : public s3fifo::ValueSink {
 public:
  void OnValue(uint32_t index, const char* data, uint32_t size) override {
    sizes[index] = size;
    std::memcpy(values[index], data, std::min(size, kValueSize));
  }
  char values[kBatch][kValueSize];
  uint32_t sizes[kBatch];
};

struct alignas(64) Progress {
  std::atomic<uint64_t> ops{0};
};

struct PhaseStats {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t sets = 0;
  uint64_t deletes = 0;
};

struct Worker {
  Worker(unsigned t, size_t intervals) : id(t), log(t), times(intervals) {}
  unsigned id;
  SpanLog log;
  std::vector<ServiceTimes> times;  // per interval of the measured phase
  PhaseStats stats[3];
  uint64_t failed = 0;
  std::string first_failure;
};

class Churn {
 public:
  Churn(const Inputs& in, s3fifo::ConcurrentS3Fifo& cache, const std::atomic<int>& phase,
        const std::atomic<size_t>& interval)
      : in_(in), cache_(cache), phase_(phase), interval_(interval) {}

  void Run(Worker& w, Progress& progress) {
    const std::vector<KeyOp>& ops = in_.streams[w.id];
    std::vector<uint32_t> my_seq(in_.distinct, 0);  // last seq this thread Set, per id
    uint32_t next_seq = 1;
    uint64_t ids[kBatch];
    uint32_t dense[kBatch];
    uint8_t hits[kBatch];
    auto sink = std::make_unique<CopySink>();
    uint32_t n = 0;
    uint64_t cursor = 0;
    uint64_t done = 0;
    uint64_t batch_no = 0;
    uint32_t get_no = 0;
    char payload[kValueSize];
    int phase = kWarmup;
    for (;;) {
      const int now = phase_.load(std::memory_order_relaxed);
      if (now != phase) {
        if (phase == kTraced) {
          w.log.End();
        }
        phase = now;
        if (phase == kStop) {
          break;
        }
        if (phase == kTraced) {
          w.log.Begin("bench.churn_loop", 0);
        }
      }
      SpanLog* log = phase == kTraced ? &w.log : nullptr;
      PhaseStats& st = w.stats[phase];
      const KeyOp& op = ops[cursor];
      cursor = cursor + 1 == ops.size() ? 0 : cursor + 1;
      switch (op.op) {
        case s3fifo::OpType::kGet: {
          if (log != nullptr && ++get_no % kScalarSampleEvery == 0) {
            log->Begin("concurrent.Get", ++batch_no);
            const bool hit = cache_.Get(op.id);
            log->EndAs(hit ? "concurrent.get_hit" : "concurrent.get_miss");
            ++st.gets;
            st.hits += hit ? 1 : 0;
            ++done;
            break;
          }
          ids[n] = op.id;
          dense[n] = op.dense;
          if (++n == kBatch) {
            RunBatch(w, st, ids, dense, hits, n, *sink, my_seq, log, ++batch_no,
                     phase == kMeasure);
            done += n;
            n = 0;
          }
          break;
        }
        case s3fifo::OpType::kSet: {
          const uint32_t seq = next_seq++;
          MakeSetPayload(op.id, w.id, seq, payload);
          ScopedSpan span(log, "concurrent.Set", ++batch_no);
          const int64_t t0 = NowNs();
          const bool stored = cache_.Set(op.id, payload, kValueSize);
          const int64_t t1 = NowNs();
          if (phase == kMeasure) {
            Times(w).Add(static_cast<double>(t1 - t0));
          }
          my_seq[op.dense] = seq;
          ++st.sets;
          ++done;
          if (!stored) {
            Failure(w, "Set was refused");
          }
          break;
        }
        case s3fifo::OpType::kDelete: {
          ScopedSpan span(log, "concurrent.Delete", ++batch_no);
          const int64_t t0 = NowNs();
          cache_.Delete(op.id);
          const int64_t t1 = NowNs();
          if (phase == kMeasure) {
            Times(w).Add(static_cast<double>(t1 - t0));
          }
          ++st.deletes;
          ++done;
          break;
        }
      }
      progress.ops.store(done, std::memory_order_relaxed);
    }
  }

 private:
  void RunBatch(Worker& w, PhaseStats& st, const uint64_t* ids, const uint32_t* dense,
                uint8_t* hits, uint32_t n, CopySink& sink, const std::vector<uint32_t>& my_seq,
                SpanLog* log, uint64_t batch_no, bool record_time) {
    std::fill(sink.sizes, sink.sizes + n, ~0u);
    int64_t t0 = 0;
    int64_t t1 = 0;
    {
      ScopedSpan span(log, "concurrent.GetBatch", batch_no);
      t0 = NowNs();
      cache_.GetBatch(ids, n, hits, &sink);
      t1 = NowNs();
    }
    if (record_time) {
      Times(w).Add(static_cast<double>(t1 - t0) / n, n);
    }
    st.gets += n;
    for (uint32_t i = 0; i < n; ++i) {
      if (hits[i] == 0) {
        continue;
      }
      ++st.hits;
      if (sink.sizes[i] == ~0u) {
        Failure(w, "a GetBatch hit delivered no value");
        continue;
      }
      const char* v = sink.values[i];
      uint32_t writer = 0;
      uint32_t seq = 0;
      if (IsFill(ids[i], v, sink.sizes[i])) {
        continue;
      }
      if (!DecodeSetPayload(ids[i], v, sink.sizes[i], &writer, &seq) || writer >= kThreads) {
        Failure(w, "a hit returned bytes that are neither the fill nor a Set payload of its id");
      } else if (writer == w.id && seq != my_seq[dense[i]]) {
        Failure(w, "a hit returned an overwritten Set payload of this thread");
      }
    }
  }

  ServiceTimes& Times(Worker& w) const {
    return w.times[std::min(interval_.load(std::memory_order_relaxed), w.times.size() - 1)];
  }

  static void Failure(Worker& w, const char* what) {
    if (w.failed++ == 0) {
      w.first_failure = what;
    }
  }

  const Inputs& in_;
  s3fifo::ConcurrentS3Fifo& cache_;
  const std::atomic<int>& phase_;
  const std::atomic<size_t>& interval_;
};

// Runs the phase for `seconds`, sampling the workers' progress every
// kIntervalSeconds, appending each interval's rates to `rates` (if given)
// and advancing `interval` (if given) at each sample.
void TimePhase(std::atomic<int>& phase, int which, double seconds,
               const std::vector<std::unique_ptr<Progress>>& progress, WindowRates* rates,
               std::atomic<size_t>* interval) {
  auto total = [&] {
    uint64_t n = 0;
    for (const auto& p : progress) {
      n += p->ops.load(std::memory_order_relaxed);
    }
    return n;
  };
  phase.store(which, std::memory_order_relaxed);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t t = start;
  int64_t cpu = ProcessCpuNs();
  uint64_t ops = total();
  const size_t windows_before = rates == nullptr ? 0 : rates->cpu.size();
  while (t < end) {
    const int64_t next = std::min<int64_t>(t + static_cast<int64_t>(kIntervalSeconds * 1e9), end);
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - NowNs()));
    const int64_t now = NowNs();
    const int64_t now_cpu = ProcessCpuNs();
    const uint64_t now_ops = total();
    // A short last interval is dropped, unless it is the phase's only one.
    if (rates != nullptr && (now - t > static_cast<int64_t>(kIntervalSeconds * 0.5e9) ||
                             rates->cpu.size() == windows_before)) {
      rates->Add(now_ops - ops, now - t, now_cpu - cpu);
    }
    t = now;
    cpu = now_cpu;
    ops = now_ops;
    if (interval != nullptr) {
      interval->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace

Result RunCacheChurn(const Options& options) {
  Result result;
  const double measure_s = (options.trace ? options.seconds / 2 : options.seconds) / kRounds;
  const double traced_s = options.trace ? options.seconds / 2 / kRounds : 0.0;
  const size_t intervals = kRounds * (static_cast<size_t>(measure_s / kIntervalSeconds) + 2);
  std::vector<std::unique_ptr<Worker>> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<Worker>(t, intervals));
  }
  std::vector<double> setup_s;
  WindowRates rates;
  WindowRates traced_rates;
  std::atomic<size_t> interval{0};
  for (int round = 0; round < kRounds; ++round) {
    const int64_t t0 = NowNs();
    const Inputs inputs = MakeInputs(options.seed);
    s3fifo::ConcurrentCacheConfig config;
    config.capacity_objects = kCapacity;
    config.value_size = kValueSize;
    s3fifo::ConcurrentS3Fifo cache(config);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    std::atomic<int> phase{kWarmup};
    Churn churn(inputs, cache, phase, interval);
    std::vector<std::unique_ptr<Progress>> progress;
    for (unsigned t = 0; t < kThreads; ++t) {
      progress.push_back(std::make_unique<Progress>());
    }
    std::vector<std::jthread> threads;
    // Stops the workers before the jthreads join, on every way out.
    struct Stop {
      std::atomic<int>& phase;
      ~Stop() { phase.store(kStop, std::memory_order_relaxed); }
    };
    const Stop stop{phase};
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { churn.Run(*workers[t], *progress[t]); });
    }
    TimePhase(phase, kWarmup, kWarmupSeconds, progress, nullptr, nullptr);
    TimePhase(phase, kMeasure, measure_s, progress, &rates, &interval);
    if (options.trace) {
      TimePhase(phase, kTraced, traced_s, progress, &traced_rates, nullptr);
    }
  }

  WindowQuantiles quantiles;
  PhaseStats measured;
  for (size_t i = 0; i < intervals; ++i) {
    ServiceTimes window;
    for (const auto& w : workers) {
      window.Merge(w->times[i]);
    }
    quantiles.Add(window);
  }
  for (const auto& w : workers) {
    for (int p = 0; p < 3; ++p) {
      result.attempted += w->stats[p].gets + w->stats[p].sets + w->stats[p].deletes;
    }
    measured.gets += w->stats[kMeasure].gets;
    measured.hits += w->stats[kMeasure].hits;
    if (w->failed > 0) {
      result.Fail("cache-churn thread " + std::to_string(w->id) + ": " + w->first_failure +
                  " (" + std::to_string(w->failed) + " failed ops)");
      result.failed += w->failed - 1;
    }
  }
  const double hit_ratio =
      measured.gets == 0 ? 0.0 : static_cast<double>(measured.hits) / measured.gets;
  std::fprintf(stderr,
               "cache-churn: %u threads, capacity %llu, %zu intervals, hit ratio %.4f, "
               "%llu service-time samples\n",
               kThreads, static_cast<unsigned long long>(kCapacity), rates.cpu.size(), hit_ratio,
               static_cast<unsigned long long>(quantiles.samples));

  if (!options.trace) {
    AddEndToEnd(rates, quantiles, hit_ratio, setup_s, &result);
    return result;
  }

  std::vector<const SpanLog*> logs;
  for (const auto& w : workers) {
    logs.push_back(&w->log);
  }
  const std::vector<SpanTotals> totals = MergeTotals(logs);
  auto mean = [&](const char* name, double per) {
    const uint64_t n = Count(totals, name);
    return n == 0 ? 0.0 : static_cast<double>(TotalNs(totals, name)) / (n * per);
  };
  std::map<std::string, double> layer;
  layer["concurrent.getbatch_ns_per_key"] = mean("concurrent.GetBatch", kBatch);
  layer["concurrent.get_hit_ns"] = mean("concurrent.get_hit", 1);
  layer["concurrent.get_miss_ns"] = mean("concurrent.get_miss", 1);
  layer["concurrent.set_ns"] = mean("concurrent.Set", 1);
  layer["concurrent.delete_ns"] = mean("concurrent.Delete", 1);
  ReportTrace(options, logs, rates, traced_rates, &layer);
  AddLayerMetrics(layer, &result);
  return result;
}

}  // namespace kvbench
