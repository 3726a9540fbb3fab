#include "kvbench/cpp/common.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace kvbench {

void Result::Fail(const std::string& what) {
  if (failed < 10) {
    std::fprintf(stderr, "kvbench: check failed: %s\n", what.c_str());
  }
  ++failed;
  correct = false;
}

void AppendKeyOps(const s3fifo::Trace& trace, std::unordered_map<uint64_t, uint32_t>* dense,
                  std::vector<KeyOp>* out) {
  out->reserve(out->size() + trace.size());
  for (const s3fifo::Request& r : trace.requests()) {
    const auto it = dense->try_emplace(r.id, static_cast<uint32_t>(dense->size())).first;
    out->push_back({r.id, it->second, r.op});
  }
}

size_t ServiceTimes::Bucket(double ns) {
  if (!(ns >= 1.0)) {
    return 0;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &ns, sizeof(bits));
  const int exponent = static_cast<int>(bits >> 52) - 1023;
  if (exponent > kMaxExponent) {
    return kBuckets - 1;
  }
  const size_t sub = (bits >> (52 - kSubBits)) & ((size_t{1} << kSubBits) - 1);
  return 1 + (static_cast<size_t>(exponent) << kSubBits) + sub;
}

double ServiceTimes::BucketLow(size_t bucket) {
  if (bucket == 0) {
    return 0.0;
  }
  const size_t b = bucket - 1;
  const double base = std::ldexp(1.0, static_cast<int>(b >> kSubBits));
  return base * (1.0 + static_cast<double>(b & ((size_t{1} << kSubBits) - 1)) /
                           static_cast<double>(size_t{1} << kSubBits));
}

void ServiceTimes::Add(double ns, uint32_t weight) {
  counts_[Bucket(ns)] += weight;
  ops_ += weight;
  ++samples_;
}

void ServiceTimes::Merge(const ServiceTimes& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  ops_ += other.ops_;
  samples_ += other.samples_;
}

void ServiceTimes::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  ops_ = 0;
  samples_ = 0;
}

double ServiceTimes::Quantile(double q) const {
  if (ops_ == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(ops_);
  double seen = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c > 0 && seen + c >= target) {
      const double low = BucketLow(i);
      const double high = i + 1 < kBuckets ? BucketLow(i + 1) : low;
      return low + (high - low) * (target - seen) / c;
    }
    seen += c;
  }
  return BucketLow(kBuckets - 1);
}

void WindowQuantiles::Add(const ServiceTimes& window) {
  if (window.ops() == 0) {
    return;
  }
  p50.push_back(window.Quantile(0.50));
  p90.push_back(window.Quantile(0.90));
  samples += window.samples();
}

void WindowQuantiles::Append(const WindowQuantiles& other) {
  p50.insert(p50.end(), other.p50.begin(), other.p50.end());
  p90.insert(p90.end(), other.p90.begin(), other.p90.end());
  samples += other.samples;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void WindowRates::Add(uint64_t ops, int64_t wall_ns, int64_t cpu_ns) {
  if (wall_ns <= 0 || cpu_ns <= 0) {
    return;
  }
  cpu.push_back(static_cast<double>(ops) * 1e3 / static_cast<double>(cpu_ns));
  wall.push_back(static_cast<double>(ops) * 1e3 / static_cast<double>(wall_ns));
}

void WindowRates::Append(const WindowRates& other) {
  cpu.insert(cpu.end(), other.cpu.begin(), other.cpu.end());
  wall.insert(wall.end(), other.wall.begin(), other.wall.end());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

namespace {

// utime + stime of one task, in clock ticks; -1 if it is gone.
int64_t TaskCpuTicks(const char* tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%s/stat", tid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    return -1;
  }
  char buf[1024];
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The command name may contain spaces; fields resume after the last ')'.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) {
    return -1;
  }
  // Fields after ')' start at field 3 (state); utime and stime are 14, 15.
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (std::sscanf(p + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu", &utime,
                  &stime) != 2) {
    return -1;
  }
  return static_cast<int64_t>(utime + stime);
}

}  // namespace

int64_t OtherThreadsCpuNs(int skip_tid) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  int64_t ticks = 0;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.' || std::atoi(e->d_name) == skip_tid) {
      continue;
    }
    const int64_t t = TaskCpuTicks(e->d_name);
    if (t > 0) {
      ticks += t;
    }
  }
  closedir(dir);
  return ticks * (1000000000 / sysconf(_SC_CLK_TCK));
}

}  // namespace kvbench
