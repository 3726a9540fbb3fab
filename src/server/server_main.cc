// Standalone cache server:
//
//   s3fifo_server [--port N] [--workers N] [--capacity N] [--value-bytes N]
//                 [--cache-shards N]
//
// Serves the memcached text subset (get/gets/mget/set/delete/stats/version/
// quit) on top of the sharded lock-free concurrent S3-FIFO. Prints the bound
// port on stdout (useful with --port 0) and runs until SIGINT/SIGTERM.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/server/cache_server.h"
#include "src/server/cli_args.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--workers N] [--capacity N] "
               "[--value-bytes N] [--cache-shards N]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  s3fifo::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The next argument as a whole decimal number in [min, max].
    auto number = [&](uint64_t min, uint64_t max) -> uint64_t {
      uint64_t v = 0;
      if (i + 1 >= argc || !s3fifo::ParseUintArg(argv[++i], min, max, &v)) {
        Usage(argv[0]);
      }
      return v;
    };
    if (arg == "--port") {
      config.port = static_cast<uint16_t>(number(0, UINT16_MAX));
    } else if (arg == "--workers") {
      config.workers = static_cast<unsigned>(number(0, UINT_MAX));
    } else if (arg == "--capacity") {
      config.cache.capacity_objects = number(1, UINT64_MAX);
    } else if (arg == "--value-bytes") {
      config.cache.value_size = static_cast<uint32_t>(number(0, UINT32_MAX));
    } else if (arg == "--cache-shards") {
      config.cache.cache_shards = static_cast<unsigned>(number(0, UINT_MAX));
    } else {
      Usage(argv[0]);
    }
  }

  s3fifo::CacheServer server(config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "failed to start: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s:%u (workers=%u capacity=%llu shards=%u)\n",
              config.host.c_str(), server.port(), config.workers,
              static_cast<unsigned long long>(config.cache.capacity_objects),
              config.cache.cache_shards);
  std::fflush(stdout);

  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const s3fifo::ServerStats s = server.TotalStats();
  std::printf("shutdown: conns=%llu gets=%llu sets=%llu hits=%llu misses=%llu "
              "batches=%llu\n",
              static_cast<unsigned long long>(s.connections_accepted),
              static_cast<unsigned long long>(s.cmd_get),
              static_cast<unsigned long long>(s.cmd_set),
              static_cast<unsigned long long>(s.get_hits),
              static_cast<unsigned long long>(s.get_misses),
              static_cast<unsigned long long>(s.batches));
  return 0;
}
