// Shared plumbing of the kvbench workloads: options, the result record the
// final JSON line is rendered from, clocks, quantiles and process
// statistics.
#ifndef KVBENCH_CPP_COMMON_H_
#define KVBENCH_CPP_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/trace.h"

namespace kvbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time (user + system) of every thread of this process, ns. Unlike the
// wall clock it does not advance while the host has the vCPU descheduled
// (steal) or the process waits.
int64_t ProcessCpuNs();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its span dump into.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Resolved server transport ("none" for in-process workloads).
  std::string transport = "none";

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records one failed output check; the first few are explained on stderr.
  void Fail(const std::string& what);
};

// One generated request and the index of its id among every id of the
// run's inputs, so per-key bookkeeping lives in flat arrays.
struct KeyOp {
  uint64_t id = 0;
  uint32_t dense = 0;
  s3fifo::OpType op = s3fifo::OpType::kGet;
};

// Appends `trace` to `out`, numbering in `dense` the ids it has not seen.
void AppendKeyOps(const s3fifo::Trace& trace, std::unordered_map<uint64_t, uint32_t>* dense,
                  std::vector<KeyOp>* out);

// Per-op service times in a log-linear histogram (128 sub-buckets per
// power of two, so memory stays fixed however many operations a run
// completes). A sample stands for `weight` operations: a batch of k gets is
// one sample of batch_ns / k with weight k.
class ServiceTimes {
 public:
  ServiceTimes() : counts_(kBuckets, 0) {}
  void Add(double ns, uint32_t weight = 1);
  void Merge(const ServiceTimes& other);
  void Clear();
  uint64_t ops() const { return ops_; }
  uint64_t samples() const { return samples_; }
  // Weighted quantile (q in [0,1]) over the operations, interpolated
  // linearly inside the bucket it falls in.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxExponent = 34;  // 2^34 ns, ~17 s
  static constexpr size_t kBuckets = 1 + (kMaxExponent + 1) * (size_t{1} << kSubBits);
  static size_t Bucket(double ns);
  static double BucketLow(size_t bucket);

  std::vector<uint64_t> counts_;
  uint64_t ops_ = 0;
  uint64_t samples_ = 0;
};

// The p50 and p90 of each measurement window (a job, or an interval of a
// run); a run reports their medians over its windows, so a stretch of
// interference from outside the process moves the result less.
struct WindowQuantiles {
  std::vector<double> p50;
  std::vector<double> p90;
  uint64_t samples = 0;

  void Add(const ServiceTimes& window);
  void Append(const WindowQuantiles& other);
};

// Operation rates (Mop/s) of a run's measurement windows, against the
// process's CPU time and against the wall clock. The CPU-time rate is the
// reported throughput: on a shared host the wall-clock rate also moves with
// how long the host keeps the vCPU from running.
struct WindowRates {
  std::vector<double> cpu;
  std::vector<double> wall;

  void Add(uint64_t ops, int64_t wall_ns, int64_t cpu_ns);
  void Append(const WindowRates& other);
};

double Median(std::vector<double> values);

// Peak resident set of this process, MiB.
double PeakRssMib();
// CPU time (user + system) of the calling thread, ns.
int64_t ThreadCpuNs();
// Summed utime+stime, ns, of every thread of this process except `skip_tid`
// (from /proc/self/task/*/stat).
int64_t OtherThreadsCpuNs(int skip_tid);
int CurrentTid();

}  // namespace kvbench

#endif  // KVBENCH_CPP_COMMON_H_
