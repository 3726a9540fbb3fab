// End-to-end cache-as-a-service benchmark: the cache server (src/server/)
// behind the memcached text protocol, driven over loopback TCP by the
// in-process load generator. Sweeps worker-thread counts and pipelining
// depths in closed-loop mode (capacity: each connection keeps N requests in
// flight), then runs a fixed-rate open loop at each depth at half that
// depth's measured closed-loop throughput, with latencies measured from intended send times
// (coordinated-omission safe). Each row carries the server-side kernel
// crossings per operation, from the transport counters. Emits
// BENCH_server.json.
//
// NOTE: client and server share this machine's cores, so absolute numbers
// are loopback round-trip costs, not NIC-limited serving capacity; the
// meaningful signal is the pipelining-depth gain (per-connection batches
// amortize protocol, syscall and cache-probe cost through GetBatch).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/cache_server.h"
#include "src/server/loadgen.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

void Run() {
  PrintHeader("Cache server over loopback: throughput, latency, syscalls/op",
              "§5.3 methodology, served over the network front end");
  const double scale = BenchScale();
  const uint64_t closed_ops = static_cast<uint64_t>(200000 * scale);
  const double open_duration_s = 2.0 * (scale < 1 ? scale : 1.0);

  ZipfWorkloadConfig workload;
  workload.num_objects = 1 << 17;
  workload.num_requests = 1 << 20;
  workload.alpha = 1.0;
  workload.seed = 7;
  const Trace trace = GenerateZipfTrace(workload);

  JsonFields summary;
  summary.Add("zipf_objects", workload.num_objects)
      .Add("zipf_alpha", workload.alpha)
      .Add("capacity_objects", uint64_t{1} << 15)
      .Add("closed_ops", closed_ops);
  std::vector<JsonFields> rows;

  std::printf("%-7s %-8s %-6s %-6s %12s %10s %10s %10s %8s %9s\n", "mode",
              "workers", "conns", "depth", "rate(/s)", "p50(us)", "p99(us)",
              "p999(us)", "hit", "sysc/op");

  for (const unsigned workers : {1u, 2u}) {
    ServerConfig sconfig;
    sconfig.workers = workers;
    sconfig.cache.capacity_objects = 1 << 15;
    sconfig.cache.value_size = 64;
    CacheServer server(sconfig);
    std::string error;
    if (!server.Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return;
    }

    // Per-run syscall deltas: TotalStats accumulates across the sweep, so
    // snapshot around every loadgen run. False if the load generator failed.
    ServerStats before = server.TotalStats();
    std::map<unsigned, double> closed_rate;  // pipeline depth -> ops/s
    auto run = [&](const LoadGenConfig& lg) {
      const LoadGenResult r = RunLoadGen(lg, trace);
      if (!r.ok) {
        std::fprintf(stderr, "loadgen failed: %s\n", r.error.c_str());
        return false;
      }
      const bool open = lg.target_rate > 0;
      const ServerStats after = server.TotalStats();
      const uint64_t syscalls =
          after.transport_syscalls - before.transport_syscalls;
      before = after;
      if (!open) {
        closed_rate[lg.pipeline_depth] = r.achieved_rate;
      }
      const double hit =
          r.gets > 0 ? static_cast<double>(r.get_hits) / r.gets : 0;
      const double syscalls_per_op =
          r.ops > 0 ? static_cast<double>(syscalls) / r.ops : 0;
      std::printf("%-7s %-8u %-6u %-6u %12.0f %10.1f %10.1f %10.1f %8.4f %9.3f\n",
                  open ? "open" : "closed", workers, lg.connections,
                  lg.pipeline_depth, r.achieved_rate,
                  r.latency.Percentile(50) / 1e3,
                  r.latency.Percentile(99) / 1e3,
                  r.latency.Percentile(99.9) / 1e3, hit, syscalls_per_op);
      JsonFields row;
      row.Add("mode", open ? "open" : "closed")
          .Add("workers", workers)
          .Add("connections", lg.connections)
          .Add("depth", lg.pipeline_depth);
      if (open) {
        row.Add("target_rate_ops_s", lg.target_rate);
      }
      rows.push_back(row.Add("ops", r.ops)
                         .Add("seconds", r.seconds)
                         .Add("rate_ops_s", r.achieved_rate)
                         .Add("hit_ratio", hit)
                         .Add("server_syscalls", syscalls)
                         .Add("server_syscalls_per_op", syscalls_per_op)
                         .Add("p50_ns", r.latency.Percentile(50))
                         .Add("p99_ns", r.latency.Percentile(99))
                         .Add("p999_ns", r.latency.Percentile(99.9)));
      return true;
    };

    LoadGenConfig lg;
    lg.port = server.port();
    lg.threads = workers;
    lg.connections = 2 * workers;
    for (const unsigned depth : {1u, 8u, 32u}) {
      lg.pipeline_depth = depth;
      lg.max_ops = closed_ops;
      if (!run(lg)) {
        return;
      }
    }
    // Open loop at 50% of the closed-loop throughput of the same worker
    // count and depth: below that depth's saturation, so the tail reflects
    // service jitter, not queueing. (Deeper pipelines saturate higher, so a
    // rate taken from the deepest closed run would overload depth 8.)
    for (const unsigned depth : {8u, 32u}) {
      lg.pipeline_depth = depth;
      lg.max_ops = 0;
      lg.target_rate = closed_rate[depth] * 0.5;
      lg.duration_s = open_duration_s;
      if (!run(lg)) {
        return;
      }
    }

    const ServerStats stats = server.TotalStats();
    std::printf("  workers=%u server batches=%llu batched_gets=%llu "
                "(avg batch %.1f) events/wait=%.2f\n",
                workers, (unsigned long long)stats.batches,
                (unsigned long long)stats.batched_gets,
                stats.batches > 0
                    ? static_cast<double>(stats.batched_gets) / stats.batches
                    : 0.0,
                stats.transport_waits > 0
                    ? static_cast<double>(stats.transport_events) /
                          stats.transport_waits
                    : 0.0);
    server.Stop();
  }

  WriteBenchJson("server", summary, rows);
  std::printf("\nexpected shape: closed-loop throughput grows with pipelining\n"
              "depth (deeper pipelines fuse more gets per GetBatch, amortizing\n"
              "syscalls and cache probes), and syscalls/op falls with it: at\n"
              "depth 1 the readiness loop pays wait+read+send per request.\n"
              "Open-loop p99/p999 below saturation stays in the low-millisecond\n"
              "range and includes scheduling jitter from client and server\n"
              "sharing cores.\n");
}

}  // namespace
}  // namespace s3fifo

int main(int argc, char** argv) {
  s3fifo::ParseBenchArgs(argc, argv);
  s3fifo::Run();
  return 0;
}
