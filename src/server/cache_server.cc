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

void AppendU64(std::vector<char>& out, uint64_t v) {
  char buf[20];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) {
    out.push_back(buf[--n]);
  }
}

void AppendStr(std::vector<char>& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

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

struct Connection {
  Transport::Conn* tconn = nullptr;
  RingBuffer in;
  std::vector<char> out;  // response bytes not yet handed to the transport
  bool want_close = false;     // close once everything queued has drained
  bool parse_blocked = false;  // backpressure: unsent output above watermark
  bool read_paused = false;    // we returned false from GetReadBuffer
  bool pumping = false;        // re-entrancy guard (ResumeRead -> OnData)
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
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  // Snapshots of the transport's (thread-local) counters, published after
  // every Poll so stats served by other workers stay near-exact.
  std::atomic<uint64_t> t_syscalls{0};
  std::atomic<uint64_t> t_waits{0};
  std::atomic<uint64_t> t_events{0};

  void Bump(std::atomic<uint64_t>& c, uint64_t v = 1) {
    c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }

  void PublishTransportCounters() {
    const TransportCounters& tc = transport->counters();
    t_syscalls.store(tc.syscalls, std::memory_order_relaxed);
    t_waits.store(tc.waits, std::memory_order_relaxed);
    t_events.store(tc.events, std::memory_order_relaxed);
  }

  // --- Transport::Handler --------------------------------------------------

  void* OnAccept(Transport::Conn* tconn) override {
    Bump(connections_accepted);
    auto conn = std::make_unique<Connection>();
    conn->tconn = tconn;
    Connection* c = conn.get();
    conns.emplace(c, std::move(conn));
    return c;
  }

  bool GetReadBuffer(Transport::Conn* /*tconn*/, void* ud, char** buf,
                     size_t* cap) override {
    auto* c = static_cast<Connection*>(ud);
    if (!c->in.EnsureWritable(4096)) {
      if (!c->parse_blocked && !c->pumping) {
        // Full, yet a parse pass ran on these bytes and left them: one
        // frame fills the whole buffer without parsing fatal. The current
        // limits (kMaxLineLen, kMaxValueBytes, both well under the buffer
        // cap) rule that out; drop the connection to bound memory if a
        // future limit change breaks that.
        CloseConn(c);
        return false;
      }
      // Full of commands not parsed yet: either the parser is blocked on
      // the out watermark, or Pump's ResumeRead re-entered here and the
      // nested OnData left parsing to the Pump already on the stack (which
      // still holds `c`, so it must not be freed). Pause reading; that Pump
      // or the next drain parses, frees space and resumes (ResumeRead).
      c->read_paused = true;
      return false;
    }
    *buf = c->in.WritePtr();
    *cap = c->in.WriteCapacity();
    return true;
  }

  void OnData(Transport::Conn* /*tconn*/, void* ud, size_t n) override {
    auto* c = static_cast<Connection*>(ud);
    c->in.CommitWrite(n);
    Bump(bytes_read, static_cast<uint64_t>(n));
    Pump(c);
  }

  void OnWritable(Transport::Conn* /*tconn*/, void* ud) override {
    auto* c = static_cast<Connection*>(ud);
    if (c->want_close) {
      CloseConn(c);
      return;
    }
    if (c->parse_blocked && OutPending(c) <= server->config_.out_high_watermark) {
      c->parse_blocked = false;
      Pump(c);
    }
  }

  void OnClose(Transport::Conn* /*tconn*/, void* ud) override {
    conns.erase(static_cast<Connection*>(ud));
  }

  // --- protocol pump -------------------------------------------------------

  size_t OutPending(const Connection* c) const {
    return c->out.size() + transport->SendQueueBytes(c->tconn);
  }

  // Server-initiated close: the transport never calls OnClose for these.
  void CloseConn(Connection* c) {
    transport->Close(c->tconn);
    conns.erase(c);
  }

  // Hands the rendered output to the transport. False if the connection was
  // closed (want_close with nothing left queued).
  bool FlushOut(Connection* c) {
    if (!c->out.empty()) {
      Bump(bytes_written, static_cast<uint64_t>(c->out.size()));
      transport->Send(c->tconn, &c->out);  // comes back empty
    }
    if (c->want_close && transport->SendQueueBytes(c->tconn) == 0) {
      CloseConn(c);
      return false;
    }
    return true;
  }

  // Alternates parse and flush until neither can make progress: parsing
  // stops at the out high watermark, and room freed by a drain re-enables
  // parsing (OnWritable re-enters here). Resumes paused reads once the
  // parser catches up.
  void Pump(Connection* c) {
    if (c->pumping) {
      return;  // ResumeRead below re-entered OnData; outer loop continues
    }
    c->pumping = true;
    for (;;) {
      ProcessInput(c);
      if (!FlushOut(c)) {
        return;  // connection freed
      }
      if (c->parse_blocked &&
          OutPending(c) <= server->config_.out_high_watermark) {
        c->parse_blocked = false;
        continue;
      }
      if (c->read_paused && !c->parse_blocked && c->in.EnsureWritable(4096)) {
        c->read_paused = false;
        transport->ResumeRead(c->tconn);  // may push more bytes via OnData
        if (c->in.size() > 0) {
          continue;
        }
      }
      break;
    }
    c->pumping = false;
  }

  // Executes the fused get batch through the cache's pipelined path and
  // renders one "VALUE…/END" group per original get command, in order.
  void FlushGetBatch(Connection& c) {
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
        AppendStr(c.out, "VALUE ");
        AppendStr(c.out, c.batch_keys[idx]);
        AppendStr(c.out, " 0 ");
        AppendU64(c.out, size);
        AppendStr(c.out, "\r\n");
        c.out.insert(c.out.end(), c.value_arena.data() + off,
                     c.value_arena.data() + off + size);
        AppendStr(c.out, "\r\n");
      }
      AppendStr(c.out, "END\r\n");
    }
    Bump(batches);
    Bump(batched_gets, n);
    Bump(get_hits, hits);
    Bump(get_misses, n - hits);
    c.batch_ids.clear();
    c.batch_keys.clear();
    c.batch_op_key_counts.clear();
  }

  // Parses and executes everything buffered on the connection. Respects the
  // out-buffer high watermark (backpressure) and the batch cap.
  void ProcessInput(Connection* c) {
    ConcurrentCache& cache = *server->cache_;
    const ServerConfig& config = server->config_;
    c->parsed.Clear();
    while (!c->want_close) {
      if (OutPending(c) > config.out_high_watermark) {
        c->parse_blocked = true;  // resume after the next drain
        break;
      }
      const size_t op_watermark = c->parsed.ops.size();
      const ParseResult r = ParseCommand(c->in.view(), c->parsed);
      if (r.status == ParseStatus::kNeedMore) {
        break;
      }
      if (r.status == ParseStatus::kError || r.status == ParseStatus::kFatal) {
        FlushGetBatch(*c);
        AppendStr(c->out, r.error);
        Bump(parse_errors);
        c->in.Consume(r.consumed);
        if (r.status == ParseStatus::kFatal) {
          c->want_close = true;
        }
        continue;
      }
      const ParsedOp op = c->parsed.ops[op_watermark];
      c->in.Consume(r.consumed);
      switch (op.type) {
        case CmdType::kGet: {
          Bump(cmd_get, op.key_count);
          for (uint32_t k = 0; k < op.key_count; ++k) {
            const std::string_view key = c->parsed.keys[op.key_begin + k];
            c->batch_ids.push_back(KeyToId(key));
            c->batch_keys.push_back(key);
          }
          c->batch_op_key_counts.push_back(op.key_count);
          if (c->batch_ids.size() >= config.max_batch) {
            FlushGetBatch(*c);
          }
          break;
        }
        case CmdType::kSet: {
          FlushGetBatch(*c);
          Bump(cmd_set);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool stored = cache.Set(KeyToId(key), op.value.data(),
                                        static_cast<uint32_t>(op.value.size()));
          if (!op.noreply) {
            AppendStr(c->out,
                      stored ? "STORED\r\n" : "SERVER_ERROR not supported\r\n");
          }
          break;
        }
        case CmdType::kDelete: {
          FlushGetBatch(*c);
          Bump(cmd_delete);
          const std::string_view key = c->parsed.keys[op.key_begin];
          const bool removed = cache.Delete(KeyToId(key));
          if (!op.noreply) {
            AppendStr(c->out, removed ? "DELETED\r\n" : "NOT_FOUND\r\n");
          }
          break;
        }
        case CmdType::kStats: {
          FlushGetBatch(*c);
          // Fold in this worker's own transport counters first; the other
          // workers' snapshots lag by at most one Poll iteration.
          PublishTransportCounters();
          const ServerStats s = server->TotalStats();
          AppendStat(c->out, "cmd_get", s.cmd_get);
          AppendStat(c->out, "cmd_set", s.cmd_set);
          AppendStat(c->out, "cmd_delete", s.cmd_delete);
          AppendStat(c->out, "get_hits", s.get_hits);
          AppendStat(c->out, "get_misses", s.get_misses);
          AppendStat(c->out, "batches", s.batches);
          AppendStat(c->out, "batched_gets", s.batched_gets);
          AppendStat(c->out, "parse_errors", s.parse_errors);
          AppendStat(c->out, "bytes_read", s.bytes_read);
          AppendStat(c->out, "bytes_written", s.bytes_written);
          AppendStat(c->out, "total_connections", s.connections_accepted);
          AppendStat(c->out, "threads", config.workers);
          AppendStat(c->out, "curr_items", cache.ApproxSize());
          {
            const ConcurrentCacheStats cs = cache.Stats();
            AppendStat(c->out, "cache_hits", cs.hits);
            AppendStat(c->out, "cache_misses", cs.misses);
          }
          AppendStr(c->out, "STAT transport ");
          AppendStr(c->out, server->transport_name());
          AppendStr(c->out, "\r\n");
          AppendStat(c->out, "transport_syscalls", s.transport_syscalls);
          AppendStat(c->out, "transport_waits", s.transport_waits);
          AppendStat(c->out, "transport_events", s.transport_events);
          AppendStr(c->out, "END\r\n");
          break;
        }
        case CmdType::kVersion:
          FlushGetBatch(*c);
          AppendStr(c->out, kVersionLine);
          break;
        case CmdType::kQuit:
          FlushGetBatch(*c);
          c->want_close = true;
          break;
      }
    }
    FlushGetBatch(*c);
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
  if (listen(w.listen_fd, config_.listen_backlog) != 0) {
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
    s.bytes_read += w->bytes_read.load(std::memory_order_relaxed);
    s.bytes_written += w->bytes_written.load(std::memory_order_relaxed);
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
