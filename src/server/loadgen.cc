#include "src/server/loadgen.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "src/server/protocol.h"
#include "src/server/ring_buffer.h"
#include "src/server/transport.h"

namespace s3fifo {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// What the next response on the wire must look like.
enum class RespKind : uint8_t { kGet, kLine };

struct Pending {
  RespKind kind;
  uint64_t intended_ns;  // schedule time (open loop) or send time (closed)
};

// One connection's replay state; the transport owns its byte buffers.
struct ClientConn {
  int fd = -1;  // until adopted by the transport
  std::deque<Pending> pending;
  // Replay cursor: requests trace[cursor], trace[cursor + stride], ...
  uint64_t cursor = 0;
  uint64_t stride = 1;
  uint64_t issued = 0;
  uint64_t budget = 0;       // requests this connection may issue
  uint64_t next_due_ns = 0;  // open loop only
  uint64_t stride_interval_ns = 0;  // open loop: gap between this conn's sends
  // Mid-response state: bytes of a VALUE body (plus trailing \r\n) still to
  // skip before line parsing resumes.
  uint64_t skip_bytes = 0;

  uint64_t ops = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  LatencyHistogram latency;

  bool done_issuing() const { return issued >= budget; }
  bool drained() const { return done_issuing() && pending.empty(); }
};

// Appends the memcached encoding of trace request `r` to `out` and its
// expected response to the connection.
void EncodeRequest(ClientConn& c, std::vector<char>& out, const Request& r,
                   uint32_t set_value_bytes, uint64_t intended_ns) {
  switch (r.op) {
    case OpType::kGet:
      AppendStr(out, "get ");
      AppendU64(out, r.id);
      AppendStr(out, "\r\n");
      c.pending.push_back({RespKind::kGet, intended_ns});
      break;
    case OpType::kSet: {
      const uint32_t bytes =
          std::min(set_value_bytes, static_cast<uint32_t>(kMaxValueBytes));
      AppendStr(out, "set ");
      AppendU64(out, r.id);
      AppendStr(out, " 0 0 ");
      AppendU64(out, bytes);
      AppendStr(out, "\r\n");
      out.insert(out.end(), bytes, 'x');
      AppendStr(out, "\r\n");
      c.pending.push_back({RespKind::kLine, intended_ns});
      break;
    }
    case OpType::kDelete:
      AppendStr(out, "delete ");
      AppendU64(out, r.id);
      AppendStr(out, "\r\n");
      c.pending.push_back({RespKind::kLine, intended_ns});
      break;
  }
}

// Consumes completed responses from `in`, recording a latency sample per
// completed request. Returns false on protocol confusion (an error line
// while a get was expected still completes that get).
bool ConsumeResponses(ClientConn& c, RingBuffer& in, uint64_t now_ns) {
  for (;;) {
    if (c.skip_bytes > 0) {
      const uint64_t take = std::min<uint64_t>(c.skip_bytes, in.size());
      in.Consume(take);
      c.skip_bytes -= take;
      if (c.skip_bytes > 0) {
        return true;  // body still arriving
      }
    }
    const std::string_view buf = in.view();
    const size_t nl = buf.find('\n');
    if (nl == std::string_view::npos) {
      return true;
    }
    std::string_view line = buf.substr(0, nl);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (c.pending.empty()) {
      return false;  // response with no request outstanding
    }
    const Pending& p = c.pending.front();
    if (p.kind == RespKind::kGet && line.substr(0, 6) == "VALUE ") {
      // "VALUE <key> <flags> <bytes>": trailing token is the body length.
      const size_t sp = line.rfind(' ');
      uint64_t bytes = 0;
      for (char ch : line.substr(sp + 1)) {
        if (ch < '0' || ch > '9') {
          return false;
        }
        bytes = bytes * 10 + static_cast<uint64_t>(ch - '0');
      }
      c.get_hits++;
      in.Consume(nl + 1);
      c.skip_bytes = bytes + 2;  // body + \r\n
      continue;
    }
    in.Consume(nl + 1);
    if (p.kind == RespKind::kGet) {
      c.gets++;
    }
    c.ops++;
    c.latency.Add(now_ns > p.intended_ns ? now_ns - p.intended_ns : 0);
    c.pending.pop_front();
  }
}

bool ConnectLoopback(ClientConn& c, const std::string& host, uint16_t port,
                     std::string* error) {
  c.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) {
    *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host " + host;
    return false;
  }
  if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    // EINTR leaves the connect completing asynchronously (a signal whose
    // handler was installed without SA_RESTART, e.g. a profiler's timer,
    // interrupts a blocking connect): wait for writability and read the
    // final status instead of failing.
    bool ok = false;
    if (errno == EINTR) {
      pollfd pfd{c.fd, POLLOUT, 0};
      int pr;
      do {
        pr = poll(&pfd, 1, 5000);
      } while (pr < 0 && errno == EINTR);
      int soerr = 0;
      socklen_t slen = sizeof(soerr);
      if (pr == 1 &&
          getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) == 0 &&
          soerr == 0) {
        ok = true;
      } else {
        errno = soerr != 0 ? soerr : ETIMEDOUT;
      }
    }
    if (!ok) {
      *error = std::string("connect: ") + strerror(errno);
      return false;
    }
  }
  const int one = 1;
  setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Nonblocking from here on; the transport multiplexes connections.
  const int flags = fcntl(c.fd, F_GETFL, 0);
  fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
  return true;
}

struct ThreadOutcome {
  uint64_t ops = 0, gets = 0, get_hits = 0;
  LatencyHistogram latency;
  bool ok = true;
  std::string error;
};

// One client thread: owns a listener-less transport and the connections
// adopted into it. Requests are encoded into each connection's out buffer;
// completed responses are consumed from its in buffer in OnInput.
class ClientThread final : public Transport::Handler {
 public:
  ClientThread(const LoadGenConfig& cfg, const Trace& trace,
               std::vector<ClientConn>* conns, uint64_t deadline_ns,
               ThreadOutcome* outcome)
      : cfg_(cfg),
        reqs_(trace.requests()),
        conns_(conns),
        deadline_ns_(deadline_ns),
        outcome_(outcome),
        open_loop_(cfg.target_rate > 0) {}

  void Run() {
    Transport transport;
    std::string err;
    if (!transport.Init(this, -1, &err)) {
      for (auto& c : *conns_) {
        if (c.fd >= 0) {
          close(c.fd);
          c.fd = -1;
        }
      }
      Fail("transport init: " + err);
      return;
    }
    // links_[i] is (*conns_)[i]'s transport connection, null once closed.
    links_.assign(conns_->size(), nullptr);
    for (size_t i = 0; i < conns_->size(); ++i) {
      ClientConn& c = (*conns_)[i];
      links_[i] = transport.Adopt(c.fd, &c);
      c.fd = -1;  // the transport owns it now
      if (links_[i] == nullptr) {
        Fail("transport adopt failed");
        return;
      }
    }

    // Closed loop: prime every connection's pipeline.
    if (!open_loop_) {
      const uint64_t now = NowNs();
      for (size_t i = 0; i < conns_->size(); ++i) {
        ClientConn& c = (*conns_)[i];
        for (unsigned d = 0; d < cfg_.pipeline_depth && !c.done_issuing();
             ++d) {
          IssueOne(c, links_[i]->out, now);
        }
        transport.Flush(links_[i]);
      }
    }

    while (!failed()) {
      uint64_t now = NowNs();
      bool all_drained = true;
      for (size_t i = 0; i < conns_->size(); ++i) {
        ClientConn& c = (*conns_)[i];
        if (open_loop_ && links_[i] != nullptr) {
          // Issue everything the schedule says is due, independent of
          // completions (the burst cap only bounds one iteration's work; the
          // schedule itself never slips).
          unsigned burst = 0;
          while (!c.done_issuing() && now >= c.next_due_ns &&
                 (deadline_ns_ == 0 || c.next_due_ns < deadline_ns_) &&
                 burst < 4096) {
            IssueOne(c, links_[i]->out, c.next_due_ns);
            c.next_due_ns += c.stride_interval_ns;
            burst++;
          }
          if (deadline_ns_ != 0 && c.next_due_ns >= deadline_ns_) {
            c.budget = c.issued;  // deadline reached: stop issuing
          }
          transport.Flush(links_[i]);
        }
        if (!c.drained()) {
          all_drained = false;
        }
      }
      if (all_drained || failed()) {
        break;
      }

      int timeout_ms = 100;
      if (open_loop_) {
        uint64_t next_due = ~uint64_t{0};
        for (auto& c : *conns_) {
          if (!c.done_issuing()) {
            next_due = std::min(next_due, c.next_due_ns);
          }
        }
        if (next_due != ~uint64_t{0}) {
          now = NowNs();
          timeout_ms =
              next_due <= now
                  ? 0
                  : static_cast<int>(std::min<uint64_t>(
                        (next_due - now) / 1000000, 100));
        }
      }
      if (!transport.Poll(timeout_ms)) {
        Fail("transport poll failed");
        break;
      }
    }

    for (auto& c : *conns_) {
      outcome_->ops += c.ops;
      outcome_->gets += c.gets;
      outcome_->get_hits += c.get_hits;
      outcome_->latency.Merge(c.latency);
    }
    // `transport` destruction closes the fds.
  }

  // --- Transport::Handler --------------------------------------------------

  void* OnAccept(Transport::Conn* /*conn*/) override {
    return nullptr;  // client-only transport: no listener, never called
  }

  void OnInput(Transport::Conn* conn, void* ud) override {
    auto* c = static_cast<ClientConn*>(ud);
    const uint64_t now = NowNs();
    if (!ConsumeResponses(*c, conn->in, now)) {
      Fail("malformed response from server");
      return;
    }
    if (!open_loop_) {
      // Closed loop: refill the pipeline to depth.
      while (!c->done_issuing() && c->pending.size() < cfg_.pipeline_depth) {
        IssueOne(*c, conn->out, now);
      }
    }
  }

  void OnClose(Transport::Conn* /*conn*/, void* ud) override {
    auto* c = static_cast<ClientConn*>(ud);
    links_[static_cast<size_t>(c - conns_->data())] = nullptr;
    if (!c->drained()) {
      Fail("server closed connection");
    }
  }

 private:
  void Fail(std::string msg) {
    if (outcome_->ok) {
      outcome_->ok = false;
      outcome_->error = std::move(msg);
    }
  }
  bool failed() const { return !outcome_->ok; }

  void IssueOne(ClientConn& c, std::vector<char>& out, uint64_t intended_ns) {
    EncodeRequest(c, out, reqs_[c.cursor % reqs_.size()], cfg_.set_value_bytes,
                  intended_ns);
    c.cursor += c.stride;
    c.issued++;
  }

  const LoadGenConfig& cfg_;
  const std::vector<Request>& reqs_;
  std::vector<ClientConn>* conns_;
  const uint64_t deadline_ns_;
  ThreadOutcome* outcome_;
  const bool open_loop_;
  std::vector<Transport::Conn*> links_;
};

}  // namespace

LoadGenResult RunLoadGen(const LoadGenConfig& config, const Trace& trace) {
  LoadGenResult result;
  if (trace.empty()) {
    result.error = "empty trace";
    return result;
  }
  const unsigned nthreads = std::max(1u, config.threads);
  const unsigned nconns = std::max(nthreads, config.connections);
  const bool open_loop = config.target_rate > 0;
  if (!open_loop && config.pipeline_depth == 0) {
    // Nothing would ever be in flight, so nothing would ever complete.
    result.error = "closed loop needs pipeline_depth >= 1";
    return result;
  }

  uint64_t total_ops = config.max_ops == 0 ? trace.size() : config.max_ops;
  if (open_loop && config.duration_s > 0) {
    total_ops = ~uint64_t{0};  // the deadline is the stop condition
  }

  // Connections share the trace by stride so the merged request stream
  // covers it; per-connection order stays deterministic.
  std::vector<std::vector<ClientConn>> per_thread(nthreads);
  const uint64_t per_conn_interval_ns =
      open_loop ? static_cast<uint64_t>(1e9 * nconns / config.target_rate) : 0;
  const uint64_t start_ns = NowNs();
  for (unsigned i = 0; i < nconns; ++i) {
    ClientConn c;
    std::string err;
    if (!ConnectLoopback(c, config.host, config.port, &err)) {
      result.error = err;
      if (c.fd >= 0) {
        close(c.fd);
      }
      for (auto& tconns : per_thread) {
        for (auto& cc : tconns) {
          close(cc.fd);
        }
      }
      return result;
    }
    c.cursor = i;
    c.stride = nconns;
    c.budget = total_ops == ~uint64_t{0}
                   ? total_ops
                   : total_ops / nconns + (i < total_ops % nconns ? 1 : 0);
    c.stride_interval_ns = per_conn_interval_ns;
    // Stagger the schedules so the aggregate rate is smooth, not n-bursty.
    c.next_due_ns =
        start_ns + (open_loop ? per_conn_interval_ns * i / nconns : 0);
    per_thread[i % nthreads].push_back(std::move(c));
  }

  const uint64_t deadline_ns =
      open_loop && config.duration_s > 0
          ? start_ns + static_cast<uint64_t>(config.duration_s * 1e9)
          : 0;

  std::vector<ThreadOutcome> outcomes(nthreads);
  std::vector<std::unique_ptr<ClientThread>> drivers;
  std::vector<std::thread> threads;
  drivers.reserve(nthreads);
  threads.reserve(nthreads);
  for (unsigned t = 0; t < nthreads; ++t) {
    drivers.push_back(std::make_unique<ClientThread>(
        config, trace, &per_thread[t], deadline_ns, &outcomes[t]));
    threads.emplace_back([driver = drivers.back().get()] {
      driver->Run();  // the transport (and every adopted fd) dies here
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const uint64_t end_ns = NowNs();

  for (const auto& o : outcomes) {
    if (!o.ok) {
      result.error = o.error;
      return result;
    }
    result.ops += o.ops;
    result.gets += o.gets;
    result.get_hits += o.get_hits;
    result.latency.Merge(o.latency);
  }
  result.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  result.achieved_rate =
      result.seconds > 0 ? static_cast<double>(result.ops) / result.seconds : 0;
  result.ok = true;
  return result;
}

}  // namespace s3fifo
