#include "src/server/cache_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <unordered_map>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/server/protocol.h"
#include "src/server/ring_buffer.h"
#include "src/server/transport.h"

namespace s3fifo {

namespace {

constexpr const char* kVersionLine = "VERSION s3fifo-server 1.0\r\n";
// Consecutive pipelined get keys fused into one GetBatch call, at most.
constexpr size_t kMaxBatch = 256;
constexpr int kListenBacklog = 256;

void AppendStat(std::vector<char>& out, std::string_view name, uint64_t v) {
  AppendStr(out, "STAT ");
  AppendStr(out, name);
  out.push_back(' ');
  AppendU64(out, v);
  AppendStr(out, "\r\n");
}

// Copies each batched hit's value bytes into the connection's arena while
// the cache's read guard protects them; response rendering then references
// the arena, never cache memory.
struct ArenaSink final : public ValueSink {
  std::vector<char>* arena = nullptr;
  // offset in arena per batch index; kNoValue = miss or value-less cache.
  std::vector<std::pair<uint32_t, uint32_t>>* slots = nullptr;
  static constexpr uint32_t kNoValue = ~uint32_t{0};

  void OnValue(uint32_t index, const char* data, uint32_t size) override {
    (*slots)[index] = {static_cast<uint32_t>(arena->size()), size};
    arena->insert(arena->end(), data, data + size);
  }
};

// Per-connection protocol state; the transport owns the byte buffers.
struct Connection {
  ParseOutput parsed;

  // Scratch for the fused get batch (reused every flush).
  std::vector<uint64_t> batch_ids;
  std::vector<std::string_view> batch_keys;
  std::vector<uint8_t> batch_hits;
  std::vector<std::pair<uint32_t, uint32_t>> batch_slots;
  std::vector<char> value_arena;
  // (op index, keys in that op) for END placement when rendering.
  std::vector<uint32_t> batch_op_key_counts;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-worker state: one transport, one listener, the protocol handler.
// ---------------------------------------------------------------------------

struct CacheServer::Worker final : public Transport::Handler {
  CacheServer* server = nullptr;
  int listen_fd = -1;
  std::unique_ptr<Transport> transport;
  std::unordered_map<Connection*, std::unique_ptr<Connection>> conns;

  // Relaxed striped counters; folded by TotalStats().
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> cmd_get{0};
  std::atomic<uint64_t> cmd_set{0};
  std::atomic<uint64_t> cmd_delete{0};
  std::atomic<uint64_t> get_hits{0};
  std::atomic<uint64_t> get_misses{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_gets{0};
  std::atomic<uint64_t> parse_errors{0};
  // Snapshots of the transport's (thread-local) counters, published after
  // every Poll so stats served by other workers stay near-exact.
  std::atomic<uint64_t> t_syscalls{0};
  std::atomic<uint64_t> t_waits{0};
  std::atomic<uint64_t> t_events{0};
  std::atomic<uint64_t> t_bytes_read{0};
  std::atomic<uint64_t> t_bytes_written{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t v = 1) {
    c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }

  void PublishTransportCounters() {
    const TransportCounters& tc = transport->counters();
    t_syscalls.store(tc.syscalls, std::memory_order_relaxed);
    t_waits.store(tc.waits, std::memory_order_relaxed);
    t_events.store(tc.events, std::memory_order_relaxed);
    t_bytes_read.store(tc.bytes_read, std::memory_order_relaxed);
    t_bytes_written.store(tc.bytes_written, std::memory_order_relaxed);
  }

  // --- Transport::Handler --------------------------------------------------

  void* OnAccept(Transport::Conn* /*tconn*/) override {
    Bump(connections_accepted);
    auto conn = std::make_unique<Connection>();
    Connection* c = conn.get();
    conns.emplace(c, std::move(conn));
    return c;
  }

  void OnClose(Transport::Conn* /*tconn*/, void* ud) override {
    conns.erase(static_cast<Connection*>(ud));
  }

  // --- protocol ------------------------------------------------------------

  // Executes the fused get batch through the cache's pipelined path and
  // renders one "VALUE…/END" group per original get command, in order.
  void FlushGetBatch(Connection& c, std::vector<char>& out) {
    ConcurrentCache& cache = *server->cache_;
    const uint32_t n = static_cast<uint32_t>(c.batch_ids.size());
    if (n == 0) {
      return;
    }
    c.batch_hits.assign(n, 0);
    c.batch_slots.assign(n, {ArenaSink::kNoValue, 0});
    c.value_arena.clear();
    ArenaSink sink;
    sink.arena = &c.value_arena;
    sink.slots = &c.batch_slots;
    cache.GetBatch(c.batch_ids.data(), n, c.batch_hits.data(), &sink);

    uint64_t hits = 0;
    uint32_t idx = 0;
    for (uint32_t key_count : c.batch_op_key_counts) {
      for (uint32_t k = 0; k < key_count; ++k, ++idx) {
        if (c.batch_hits[idx] == 0 ||
            c.batch_slots[idx].first == ArenaSink::kNoValue) {
          continue;
        }
        ++hits;
        const auto [off, size] = c.batch_slots[idx];
        AppendStr(out, "VALUE ");
        AppendStr(out, c.batch_keys[idx]);
        AppendStr(out, " 0 ");
        AppendU64(out, size);
        AppendStr(out, "\r\n");
        out.insert(out.end(), c.value_arena.data() + off,
                   c.value_arena.data() + off + size);
        AppendStr(out, "\r\n");
      }
      AppendStr(out, "END\r\n");
    }
    Bump(batches);
    Bump(batched_gets, n);
    Bump(get_hits, hits);
    Bump(get_misses, n - hits);
    c.batch_ids.clear();
    c.batch_keys.clear();
    c.batch_op_key_counts.clear();
  }

  // Parses and executes every complete command buffered on the connection,
  // stopping while the transport's out buffer is full (backpressure). After
  // quit or an unrecoverable frame, closes once the replies are sent.
  void OnInput(Transport::Conn* tconn, void* ud) override {
    auto* c = static_cast<Connection*>(ud);
    ConcurrentCache& cache = *server->cache_;
    RingBuffer& in = tconn->in;
    std::vector<char>& out = tconn->out;
    c->parsed.Clear();
    bool quit = false;
    while (!quit && !Transport::OutFull(tconn)) {
      const size_t op_watermark = c->parsed.ops.size();
      const ParseResult r = ParseCommand(in.view(), c->parsed);
      if (r.status == ParseStatus::kNeedMore) {
        break;
      }
      if (r.status == ParseStatus::kError || r.status == ParseStatus::kFatal) {
        FlushGetBatch(*c, out);
        AppendStr(out, r.error);
        Bump(parse_errors);
        in.Consume(r.consumed);
        quit = r.status == ParseStatus::kFatal;
        continue;
      }
      const ParsedOp op = c->parsed.ops[op_watermark];
      in.Consume(r.consumed);
      switch (op.type) {
        case CmdType::kGet: {
          Bump(cmd_get, op.key_count);
          for (uint32_t k = 0; k < op.key_count; ++k) {
            const std::string_view key = c->parsed.keys[op.key_begin + k];
            c->batch_ids.push_back(KeyToId(key));
            c->batch_keys.push_back(key);
          }
          c->batch_op_key_counts.push_back(op.key_count);
          if (c->batch_ids.size() >= kMaxBatch) {
            FlushGetBatch(*c, out);
          }
          break;
        }
        case CmdType::kSet: {
          FlushGetBatch(*c, out);
          Bump(cmd_set);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool stored = cache.Set(KeyToId(key), op.value.data(),
                                        static_cast<uint32_t>(op.value.size()));
          if (!op.noreply) {
            AppendStr(out,
                      stored ? "STORED\r\n" : "SERVER_ERROR not supported\r\n");
          }
          break;
        }
        case CmdType::kDelete: {
          FlushGetBatch(*c, out);
          Bump(cmd_delete);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool removed = cache.Delete(KeyToId(key));
          if (!op.noreply) {
            AppendStr(out, removed ? "DELETED\r\n" : "NOT_FOUND\r\n");
          }
          break;
        }
        case CmdType::kStats: {
          FlushGetBatch(*c, out);
          // Fold in this worker's own transport counters first; the other
          // workers' snapshots lag by at most one Poll iteration.
          PublishTransportCounters();
          const ServerStats s = server->TotalStats();
          AppendStat(out, "cmd_get", s.cmd_get);
          AppendStat(out, "cmd_set", s.cmd_set);
          AppendStat(out, "cmd_delete", s.cmd_delete);
          AppendStat(out, "get_hits", s.get_hits);
          AppendStat(out, "get_misses", s.get_misses);
          AppendStat(out, "batches", s.batches);
          AppendStat(out, "batched_gets", s.batched_gets);
          AppendStat(out, "parse_errors", s.parse_errors);
          AppendStat(out, "bytes_read", s.bytes_read);
          AppendStat(out, "bytes_written", s.bytes_written);
          AppendStat(out, "total_connections", s.connections_accepted);
          AppendStat(out, "threads", server->config_.workers);
          AppendStat(out, "curr_items", cache.ApproxSize());
          {
            const ConcurrentCacheStats cs = cache.Stats();
            AppendStat(out, "cache_hits", cs.hits);
            AppendStat(out, "cache_misses", cs.misses);
          }
          AppendStr(out, "STAT transport ");
          AppendStr(out, server->transport_name());
          AppendStr(out, "\r\n");
          AppendStat(out, "transport_syscalls", s.transport_syscalls);
          AppendStat(out, "transport_waits", s.transport_waits);
          AppendStat(out, "transport_events", s.transport_events);
          AppendStr(out, "END\r\n");
          break;
        }
        case CmdType::kVersion:
          FlushGetBatch(*c, out);
          AppendStr(out, kVersionLine);
          break;
        case CmdType::kQuit:
          quit = true;
          break;
      }
    }
    FlushGetBatch(*c, out);
    if (quit) {
      transport->Close(tconn);
    }
  }
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

CacheServer::CacheServer(const ServerConfig& config, ConcurrentCache* cache)
    : config_(config), cache_(cache) {
  config_.workers = std::max(1u, config_.workers);
}

CacheServer::CacheServer(const ServerConfig& config)
    : CacheServer(config, nullptr) {
  owned_cache_ = std::make_unique<ConcurrentS3Fifo>(config_.cache);
  cache_ = owned_cache_.get();
}

CacheServer::~CacheServer() { Stop(); }

bool CacheServer::BindListener(Worker& w, std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + strerror(errno);
    }
    return false;
  };
  w.listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (w.listen_fd < 0) {
    return fail("socket");
  }
  const int one = 1;
  setsockopt(w.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (setsockopt(w.listen_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    return fail("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);  // worker 0 binds config port (possibly 0)
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (bind(w.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(w.listen_fd, kListenBacklog) != 0) {
    return fail("listen");
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (getsockname(w.listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      return fail("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  return true;
}

bool CacheServer::Start(std::string* error) {
  if (running_.exchange(true)) {
    return true;
  }
  stop_.store(false);
  workers_.clear();
  port_ = config_.port;
  for (unsigned i = 0; i < config_.workers; ++i) {
    // Pushed before setup so that Stop() closes a partial worker's fds.
    Worker& w = *workers_.emplace_back(std::make_unique<Worker>());
    w.server = this;
    w.transport = std::make_unique<Transport>();
    if (!BindListener(w, error) ||
        !w.transport->Init(&w, w.listen_fd, error)) {
      Stop();
      return false;
    }
  }
  threads_.reserve(workers_.size());
  for (auto& w : workers_) {
    threads_.emplace_back([this, worker = w.get()] { RunWorker(*worker); });
  }
  return true;
}

void CacheServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  stop_.store(true);
  for (auto& w : workers_) {
    w->transport->Wake();
  }
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
  // Keep the workers (their final counters back TotalStats after Stop), but
  // release every kernel resource.
  for (auto& w : workers_) {
    w->transport.reset();
    w->conns.clear();
    if (w->listen_fd >= 0) {
      close(w->listen_fd);
      w->listen_fd = -1;
    }
  }
}

ServerStats CacheServer::TotalStats() const {
  ServerStats s;
  for (const auto& w : workers_) {
    s.connections_accepted += w->connections_accepted.load(std::memory_order_relaxed);
    s.cmd_get += w->cmd_get.load(std::memory_order_relaxed);
    s.cmd_set += w->cmd_set.load(std::memory_order_relaxed);
    s.cmd_delete += w->cmd_delete.load(std::memory_order_relaxed);
    s.get_hits += w->get_hits.load(std::memory_order_relaxed);
    s.get_misses += w->get_misses.load(std::memory_order_relaxed);
    s.batches += w->batches.load(std::memory_order_relaxed);
    s.batched_gets += w->batched_gets.load(std::memory_order_relaxed);
    s.parse_errors += w->parse_errors.load(std::memory_order_relaxed);
    s.bytes_read += w->t_bytes_read.load(std::memory_order_relaxed);
    s.bytes_written += w->t_bytes_written.load(std::memory_order_relaxed);
    s.transport_syscalls += w->t_syscalls.load(std::memory_order_relaxed);
    s.transport_waits += w->t_waits.load(std::memory_order_relaxed);
    s.transport_events += w->t_events.load(std::memory_order_relaxed);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void CacheServer::RunWorker(Worker& w) {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!w.transport->Poll(-1)) {
      break;
    }
    w.PublishTransportCounters();
  }
  w.PublishTransportCounters();
}

}  // namespace s3fifo
