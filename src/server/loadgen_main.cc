// Loopback load generator:
//
//   s3fifo_loadgen --port N [--host H] [--threads N] [--connections N]
//                  [--depth N] [--ops N] [--rate OPS/S] [--duration S]
//                  [--objects N] [--alpha A] [--seed N]
//                  [--latency-csv PATH]
//
// Replays a Zipf workload against a running s3fifo_server in the memcached
// text protocol. Default is closed-loop (each connection keeps --depth
// requests in flight); --rate switches to a fixed-rate open loop whose
// latencies are measured from intended send times (coordinated-omission
// safe). Prints throughput and p50/p99/p999. --latency-csv dumps the HDR
// histogram buckets for offline plotting, in both modes.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/server/cli_args.h"
#include "src/server/loadgen.h"
#include "src/workload/zipf_workload.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host H] [--threads N] [--connections N] "
               "[--depth N] [--ops N] [--rate OPS/S] [--duration S] "
               "[--objects N] [--alpha A] [--seed N] "
               "[--latency-csv PATH]\n",
               argv0);
  std::exit(2);
}

// One row per non-empty bucket: inclusive upper edge (ns), count, and the
// running cumulative count — enough to rebuild the CDF offline.
bool WriteLatencyCsv(const std::string& path,
                     const s3fifo::LatencyHistogram& hist) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "bucket_upper_ns,count,cumulative\n");
  uint64_t cumulative = 0;
  const auto& buckets = hist.buckets();
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    cumulative += buckets[i];
    std::fprintf(f, "%llu,%llu,%llu\n",
                 static_cast<unsigned long long>(
                     s3fifo::LatencyHistogram::BucketEdge(i)),
                 static_cast<unsigned long long>(buckets[i]),
                 static_cast<unsigned long long>(cumulative));
  }
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  s3fifo::LoadGenConfig config;
  s3fifo::ZipfWorkloadConfig workload;
  std::string latency_csv;
  workload.num_objects = 1 << 17;
  workload.num_requests = 1 << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    // The next argument as a whole decimal number in [min, max].
    auto number = [&](uint64_t min, uint64_t max) -> uint64_t {
      uint64_t v = 0;
      if (!s3fifo::ParseUintArg(next(), min, max, &v)) {
        Usage(argv[0]);
      }
      return v;
    };
    // The next argument as a finite, non-negative real number.
    auto real = [&]() -> double {
      double v = 0;
      if (!s3fifo::ParseRealArg(next(), &v)) {
        Usage(argv[0]);
      }
      return v;
    };
    if (arg == "--port") {
      config.port = static_cast<uint16_t>(number(1, UINT16_MAX));
    } else if (arg == "--host") {
      config.host = next();
    } else if (arg == "--threads") {
      config.threads = static_cast<unsigned>(number(1, UINT_MAX));
    } else if (arg == "--connections") {
      config.connections = static_cast<unsigned>(number(1, UINT_MAX));
    } else if (arg == "--depth") {
      config.pipeline_depth = static_cast<unsigned>(number(1, UINT_MAX));
    } else if (arg == "--ops") {
      config.max_ops = number(0, UINT64_MAX);
    } else if (arg == "--rate") {
      config.target_rate = real();
    } else if (arg == "--duration") {
      config.duration_s = real();
    } else if (arg == "--objects") {
      workload.num_objects = number(1, UINT64_MAX);
    } else if (arg == "--alpha") {
      workload.alpha = real();
    } else if (arg == "--seed") {
      workload.seed = number(0, UINT64_MAX);
    } else if (arg == "--latency-csv") {
      latency_csv = next();
    } else if (arg.rfind("--latency-csv=", 0) == 0) {
      latency_csv = arg.substr(strlen("--latency-csv="));
    } else {
      Usage(argv[0]);
    }
  }
  if (config.port == 0) {
    Usage(argv[0]);
  }

  const s3fifo::Trace trace = s3fifo::GenerateZipfTrace(workload);
  const s3fifo::LoadGenResult r = s3fifo::RunLoadGen(config, trace);
  if (!r.ok) {
    std::fprintf(stderr, "loadgen failed: %s\n", r.error.c_str());
    return 1;
  }
  const char* mode = config.target_rate > 0 ? "open" : "closed";
  std::printf("mode=%s conns=%u depth=%u ops=%llu secs=%.3f "
              "rate=%.0f/s hit_ratio=%.4f\n",
              mode, config.connections,
              config.pipeline_depth, static_cast<unsigned long long>(r.ops),
              r.seconds, r.achieved_rate,
              r.gets > 0 ? static_cast<double>(r.get_hits) / r.gets : 0.0);
  std::printf("%s\n", r.latency.FormatLatencyUs("latency").c_str());
  if (!latency_csv.empty()) {
    if (!WriteLatencyCsv(latency_csv, r.latency)) {
      std::fprintf(stderr, "failed to write %s\n", latency_csv.c_str());
      return 1;
    }
    std::printf("latency histogram written to %s (%llu samples)\n",
                latency_csv.c_str(),
                static_cast<unsigned long long>(r.latency.count()));
  }
  return 0;
}
