// Cache-as-a-service front end: a multi-threaded event loop serving the
// memcached text subset (src/server/protocol.h) on top of the sharded
// lock-free concurrent caches.
//
// Architecture (one box per worker):
//
//   [SO_REUSEPORT listener]──accept──┐
//   [Transport: edge-triggered epoll] ▼   owns each connection's in/out
//     read ──▶ conn.in (RingBuffer) ──OnInput: ParseCommand*──▶ ops
//        consecutive get keys fuse into one batch ──▶ ConcurrentCache::
//        GetBatch (software-pipelined lock-free probes, values copied out
//        under the EBR read guard) ──▶ replies appended to conn.out
//     conn.out ──send, after every OnInput──▶ socket; backpressure: OnInput
//        stops while more than Transport::kOutHighWatermark bytes wait in
//        out, and the transport pauses reading once in fills behind it.
//
// The event loop mechanics live in src/server/transport.h.
//
// Every worker owns its own listening socket bound with SO_REUSEPORT to the
// same port, so the kernel spreads connections across workers with no shared
// accept lock; a connection lives on one worker for its lifetime, which
// keeps all its buffers single-threaded. The cache itself is the only shared
// state, and its read path is lock-free (src/concurrent/).
#ifndef SRC_SERVER_CACHE_SERVER_H_
#define SRC_SERVER_CACHE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_cache.h"

namespace s3fifo {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;     // 0 = pick an ephemeral port (read back via port())
  unsigned workers = 1;  // event loops == SO_REUSEPORT listeners
  ConcurrentCacheConfig cache;  // sharded lock-free S3-FIFO underneath
};

// Aggregated across workers; counters are relaxed atomics, exact once the
// connections are quiescent.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t cmd_get = 0;       // keys requested via get/gets/mget
  uint64_t cmd_set = 0;
  uint64_t cmd_delete = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t batches = 0;       // GetBatch calls issued
  uint64_t batched_gets = 0;  // keys routed through GetBatch
  uint64_t parse_errors = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Data-plane efficiency (summed TransportCounters across workers): how
  // many kernel crossings the serving path cost. syscalls/cmd and
  // events/wait are the headline ratios.
  uint64_t transport_syscalls = 0;
  uint64_t transport_waits = 0;
  uint64_t transport_events = 0;
};

class CacheServer {
 public:
  // Serves `cache` (not owned) — the loopback parity tests hand in a
  // shards=1 cache and inspect it afterwards.
  CacheServer(const ServerConfig& config, ConcurrentCache* cache);
  // Owns a ConcurrentS3Fifo built from config.cache.
  explicit CacheServer(const ServerConfig& config);
  ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  // Binds all listeners, creates each worker's event loop, and spawns the
  // worker threads. False with *error naming the failed call.
  bool Start(std::string* error = nullptr);
  // Wakes every worker, closes all sockets, joins the threads. Idempotent.
  void Stop();

  // The bound port (after Start); useful with config.port = 0.
  uint16_t port() const { return port_; }
  // The data-plane backend, for logs and benchmark provenance: "epoll".
  const char* transport_name() const { return "epoll"; }
  // Always empty: there is one backend, so no fallback to report.
  std::string transport_note() const { return {}; }
  ServerStats TotalStats() const;
  ConcurrentCache& cache() { return *cache_; }

 private:
  struct Worker;

  bool BindListener(Worker& w, std::string* error);
  void RunWorker(Worker& w);

  ServerConfig config_;
  std::unique_ptr<ConcurrentCache> owned_cache_;
  ConcurrentCache* cache_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  uint16_t port_ = 0;
};

}  // namespace s3fifo

#endif  // SRC_SERVER_CACHE_SERVER_H_
