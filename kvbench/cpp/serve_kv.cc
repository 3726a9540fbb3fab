// serve-kv: an in-process CacheServer at its defaults (one worker, the
// transport kAuto resolves to) driven over loopback TCP by this file's own
// single-threaded poll client: 4 connections, each a caller that waits for
// its reply (closed loop, depth 1), 95% get / 4% set / 1% delete. Transport,
// parsing and rendering dominate; the cache probe is a small share and
// batch fusion is bypassed (one key per batch at depth 1). The client is
// not the library's load generator, so changes there cannot move these
// numbers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kvbench/cpp/payload.h"
#include "kvbench/cpp/workloads.h"
#include "src/server/cache_server.h"
#include "src/workload/zipf_workload.h"

namespace kvbench {
namespace {

constexpr uint64_t kObjects = 1000000;
constexpr uint64_t kCapacity = kObjects / 10;
constexpr unsigned kConns = 4;
// The client cycles through one generated stream of this many ops.
constexpr uint64_t kStreamOps = 2000000;
// Gets replayed straight into the cache before the server takes traffic,
// so measurement starts from a full cache.
constexpr uint64_t kPrefillOps = 1000000;
constexpr double kWarmupSeconds = 0.5;
constexpr double kIntervalSeconds = 0.5;
// A reply later than this fails the run.
constexpr int kReplyTimeoutMs = 5000;
// In a traced phase, one get reply in this many is followed by two timed
// scalar ConcurrentCache::Get calls: one of the key just served (resident,
// so a hit) and one of a key outside the stream (absent, so a miss).
constexpr uint64_t kScalarSampleEvery = 64;
constexpr uint64_t kAbsentKeyBase = 0xfff0000000000000ULL;

struct Inputs {
  std::vector<KeyOp> ops;
  uint32_t distinct = 0;
};

Inputs MakeInputs(uint64_t seed) {
  s3fifo::ZipfWorkloadConfig c;
  c.num_objects = kObjects;
  c.num_requests = kStreamOps;
  c.alpha = 1.0;
  c.write_fraction = 0.04;
  c.delete_fraction = 0.01;
  c.size_mean_bytes = kValueSize;
  c.seed = seed;
  Inputs in;
  std::unordered_map<uint64_t, uint32_t> dense;
  dense.reserve(kObjects);
  AppendKeyOps(s3fifo::GenerateZipfTrace(c), &dense, &in.ops);
  in.distinct = static_cast<uint32_t>(dense.size());
  return in;
}

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// What the client knows about one key's values. Sets carry increasing
// sequence numbers; `floor` is the lowest seq a get may still observe,
// raised only by writes no other write to the key overlapped, so the check
// never depends on how the server ordered concurrent writes.
struct KeyState {
  uint32_t issued = 0;         // highest seq sent
  uint32_t floor = 0;          // values with seq < floor are stale
  uint16_t sets_in_flight = 0;
  bool contended = false;      // a write was sent while a set was in flight
};

struct Conn {
  int fd = -1;
  std::string in;
  bool busy = false;
  KeyOp op;
  uint32_t seq = 0;          // set: its seq; get: floor at send
  uint32_t delete_floor = 0; // delete: floor to apply on its reply, 0 = none
  uint64_t request_no = 0;
  int64_t sent_ns = 0;
};

struct Counts {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t sets = 0;
  uint64_t deletes = 0;
  uint64_t replies() const { return gets + sets + deletes; }
};

class Client {
 public:
  Client(const Inputs& in, s3fifo::CacheServer& server) : in_(in), server_(server) {
    keys_.resize(in.distinct);
  }
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) {
        close(c.fd);
      }
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect() {
    conns_.resize(kConns);
    for (Conn& c : conns_) {
      c.fd = kvbench::Connect(server_.port());
      if (c.fd < 0) {
        return false;
      }
    }
    return true;
  }

  // Keeps every connection busy until `seconds` have passed, then lets the
  // in-flight requests finish. Returns per-interval reply rates; the CPU
  // time is the whole process's, client and server threads together.
  WindowRates RunPhase(double seconds, bool measure, SpanLog* log, Result* result) {
    measure_ = measure;
    log_ = log;
    result_ = result;
    root_ = log != nullptr ? log->Begin("bench.serve_loop", 0) : 0;
    WindowRates rates;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t interval_start = start;
    int64_t interval_cpu = ProcessCpuNs();
    uint64_t interval_replies = counts_.replies();
    for (Conn& c : conns_) {
      Send(c);
    }
    pollfd pfds[kConns];
    while (!aborted_) {
      size_t busy = 0;
      for (unsigned i = 0; i < kConns; ++i) {
        pfds[i] = {conns_[i].fd, static_cast<short>(conns_[i].busy ? POLLIN : 0), 0};
        busy += conns_[i].busy ? 1 : 0;
      }
      if (busy == 0) {
        break;
      }
      int ready = 0;
      {
        ScopedSpan wait(log, "client.wait", 0);
        ready = poll(pfds, kConns, kReplyTimeoutMs);
      }
      if (ready < 0 && errno == EINTR) {
        continue;
      }
      if (ready <= 0) {
        Abort("no reply within the timeout");
        break;
      }
      const int64_t now = NowNs();
      const bool more = now < end;
      for (unsigned i = 0; i < kConns && !aborted_; ++i) {
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          ScopedSpan span(log, "client.process", 0);
          Receive(conns_[i], more);
        }
      }
      if (now - interval_start >= static_cast<int64_t>(kIntervalSeconds * 1e9) && more) {
        const int64_t cpu = ProcessCpuNs();
        rates.Add(counts_.replies() - interval_replies, now - interval_start, cpu - interval_cpu);
        interval_start = now;
        interval_cpu = cpu;
        interval_replies = counts_.replies();
        quantiles_.Add(rtt_);
        rtt_.Clear();
      }
    }
    quantiles_.Add(rtt_);
    rtt_.Clear();
    if (rates.cpu.empty()) {
      // A phase shorter than one interval is one window.
      rates.Add(counts_.replies() - interval_replies, NowNs() - interval_start,
                ProcessCpuNs() - interval_cpu);
    }
    if (log != nullptr) {
      log->End();
    }
    return rates;
  }

  const Counts& counts() const { return counts_; }
  const Counts& measured() const { return measured_; }
  // Round-trip p50/p90 per interval of the measured phases.
  const WindowQuantiles& quantiles() const { return quantiles_; }
  bool aborted() const { return aborted_; }

 private:
  void Abort(const char* why) {
    result_->Fail(std::string("serve-kv: ") + why);
    aborted_ = true;
  }

  void Send(Conn& c) {
    c.op = in_.ops[cursor_];
    cursor_ = cursor_ + 1 == in_.ops.size() ? 0 : cursor_ + 1;
    KeyState& k = keys_[c.op.dense];
    char buf[128 + kValueSize];
    int n = 0;
    switch (c.op.op) {
      case s3fifo::OpType::kGet:
        c.seq = k.floor;
        n = std::snprintf(buf, sizeof(buf), "get %llu\r\n",
                          static_cast<unsigned long long>(c.op.id));
        break;
      case s3fifo::OpType::kSet:
        c.seq = ++seq_;
        k.issued = c.seq;
        k.contended |= k.sets_in_flight > 0;
        ++k.sets_in_flight;
        n = std::snprintf(buf, sizeof(buf), "set %llu 0 0 %u\r\n",
                          static_cast<unsigned long long>(c.op.id), kValueSize);
        MakeSetPayload(c.op.id, 0, c.seq, buf + n);
        n += kValueSize;
        buf[n++] = '\r';
        buf[n++] = '\n';
        break;
      case s3fifo::OpType::kDelete:
        // With no set in flight, every set sent so far has completed, so
        // once this delete is applied none of their values may be read.
        c.delete_floor = k.sets_in_flight == 0 ? k.issued + 1 : 0;
        n = std::snprintf(buf, sizeof(buf), "delete %llu\r\n",
                          static_cast<unsigned long long>(c.op.id));
        break;
    }
    c.request_no = ++requests_;
    c.sent_ns = NowNs();
    c.busy = true;
    for (int off = 0; off < n;) {
      const ssize_t w = send(c.fd, buf + off, n - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) {
        continue;
      }
      if (w <= 0) {
        Abort("a request could not be sent");
        return;
      }
      off += static_cast<int>(w);
    }
  }

  void Receive(Conn& c, bool send_next) {
    char buf[4096];
    const ssize_t r = recv(c.fd, buf, sizeof(buf), 0);
    if (r <= 0) {
      if (r < 0 && (errno == EINTR || errno == EAGAIN)) {
        return;
      }
      Abort("the server closed a connection");
      return;
    }
    c.in.append(buf, static_cast<size_t>(r));
    size_t used = 0;
    bool hit = false;
    const char* problem = Parse(c, &used, &hit);
    if (problem == nullptr && used == 0) {
      return;  // reply incomplete
    }
    const int64_t done_ns = NowNs();
    if (problem == nullptr && used != c.in.size()) {
      problem = "bytes after the reply at depth 1";
    }
    if (problem != nullptr) {
      Abort(problem);
      return;
    }
    c.in.clear();
    c.busy = false;
    Complete(c, hit, done_ns);
    if (send_next) {
      Send(c);
    }
  }

  // Parses the reply to c.op at the front of c.in. Returns an error, or
  // null with *used = 0 when more bytes are needed.
  const char* Parse(Conn& c, size_t* used, bool* hit) {
    const std::string_view in = c.in;
    const size_t eol = in.find("\r\n");
    if (eol == std::string_view::npos) {
      return nullptr;
    }
    const std::string_view line = in.substr(0, eol);
    switch (c.op.op) {
      case s3fifo::OpType::kSet:
        *used = eol + 2;
        return line == "STORED" ? nullptr : "a set was not STORED";
      case s3fifo::OpType::kDelete:
        *used = eol + 2;
        return line == "DELETED" || line == "NOT_FOUND" ? nullptr : "bad delete reply";
      case s3fifo::OpType::kGet:
        break;
    }
    if (line == "END") {
      *used = eol + 2;
      *hit = false;
      return nullptr;
    }
    char key[24];
    const int klen = std::snprintf(key, sizeof(key), "%llu",
                                   static_cast<unsigned long long>(c.op.id));
    const std::string_view head = std::string_view("VALUE ");
    if (line.substr(0, head.size()) != head ||
        line.substr(head.size(), klen) != std::string_view(key, klen) ||
        line.substr(head.size() + klen, 3) != " 0 ") {
      return "bad get reply header";
    }
    const std::string_view len_text = line.substr(head.size() + klen + 3);
    uint32_t len = 0;
    const auto [end, ec] = std::from_chars(len_text.data(), len_text.data() + len_text.size(), len);
    if (ec != std::errc() || end != len_text.data() + len_text.size()) {
      return "bad get reply length";
    }
    const size_t body = eol + 2;
    const size_t total = body + len + 2 + 5;  // data \r\n END\r\n
    if (in.size() < total) {
      return nullptr;
    }
    if (in.substr(body + len, 7) != "\r\nEND\r\n") {
      return "bad get reply trailer";
    }
    const char* data = in.data() + body;
    uint32_t writer = 0;
    uint32_t seq = 0;
    if (!IsFill(c.op.id, data, len)) {
      if (!DecodeSetPayload(c.op.id, data, len, &writer, &seq)) {
        return "a VALUE is neither the fill nor a set payload of its key";
      }
      if (seq < c.seq || seq > keys_[c.op.dense].issued) {
        return "a VALUE carries a stale or unsent set payload";
      }
    }
    *used = total;
    *hit = true;
    return nullptr;
  }

  void Complete(Conn& c, bool hit, int64_t done_ns) {
    KeyState& k = keys_[c.op.dense];
    const char* span = "server.get";
    switch (c.op.op) {
      case s3fifo::OpType::kGet:
        ++counts_.gets;
        counts_.hits += hit ? 1 : 0;
        if (measure_) {
          ++measured_.gets;
          measured_.hits += hit ? 1 : 0;
        }
        break;
      case s3fifo::OpType::kSet:
        span = "server.set";
        ++counts_.sets;
        if (--k.sets_in_flight == 0) {
          if (!k.contended) {
            k.floor = std::max(k.floor, c.seq);
          }
          k.contended = false;
        }
        break;
      case s3fifo::OpType::kDelete:
        span = "server.delete";
        ++counts_.deletes;
        k.floor = std::max(k.floor, c.delete_floor);
        break;
    }
    if (measure_) {
      rtt_.Add(static_cast<double>(done_ns - c.sent_ns));
    }
    if (log_ != nullptr) {
      log_->Record(span, c.request_no, root_, c.sent_ns, done_ns);
      if (c.op.op == s3fifo::OpType::kGet && c.request_no % kScalarSampleEvery == 0) {
        for (const uint64_t id : {c.op.id, kAbsentKeyBase + c.request_no}) {
          log_->Begin("concurrent.Get", c.request_no);
          const bool found = server_.cache().Get(id);
          log_->EndAs(found ? "concurrent.get_hit" : "concurrent.get_miss");
        }
      }
    }
  }

  const Inputs& in_;
  s3fifo::CacheServer& server_;
  std::vector<Conn> conns_;
  std::vector<KeyState> keys_;
  uint64_t cursor_ = 0;
  uint32_t seq_ = 0;
  uint64_t requests_ = 0;
  Counts counts_;
  Counts measured_;
  ServiceTimes rtt_;  // current interval, measured phases only
  WindowQuantiles quantiles_;
  bool measure_ = false;
  bool aborted_ = false;
  Result* result_ = nullptr;
  SpanLog* log_ = nullptr;
  uint64_t root_ = 0;
};

// Confines the calling thread, and so the server threads it starts later,
// to the first CPU it may use. Unpinned on a 4-vCPU guest, every
// depth-1 round trip crosses vCPUs, and how long the host takes to wake an
// idle vCPU made whole runs fall to a third of the usual rate (see
// kvbench/README.md); on one CPU the round trips repeat.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

struct Setup {
  Inputs inputs;
  std::unique_ptr<s3fifo::CacheServer> server;
  std::unique_ptr<Client> client;
};

bool MakeSetup(uint64_t seed, Setup* s, std::string* error) {
  s->client.reset();
  s->server.reset();
  s->inputs = Inputs();
  s->inputs = MakeInputs(seed);
  s3fifo::ServerConfig config;
  config.cache.capacity_objects = kCapacity;
  config.cache.value_size = kValueSize;
  s->server = std::make_unique<s3fifo::CacheServer>(config);
  if (!s->server->Start(error)) {
    return false;
  }
  // Prefill from the far end of the stream, so the measured requests are
  // not replays of the prefill.
  std::vector<uint64_t> ids;
  ids.reserve(kPrefillOps);
  for (uint64_t i = s->inputs.ops.size() - kPrefillOps; i < s->inputs.ops.size(); ++i) {
    ids.push_back(s->inputs.ops[i].id);
  }
  std::vector<uint8_t> hits(ids.size());
  for (size_t i = 0; i < ids.size(); i += 256) {
    const uint32_t n = static_cast<uint32_t>(std::min<size_t>(256, ids.size() - i));
    s->server->cache().GetBatch(ids.data() + i, n, hits.data() + i);
  }
  s->client = std::make_unique<Client>(s->inputs, *s->server);
  if (!s->client->Connect()) {
    *error = "connect to the loopback server failed";
    return false;
  }
  return true;
}

}  // namespace

Result RunServeKv(const Options& options) {
  Result result;
  PinToOneCpu();
  const double measure_s = (options.trace ? options.seconds / 2 : options.seconds) / kRounds;
  const double traced_s = options.trace ? options.seconds / 2 / kRounds : 0.0;
  std::vector<double> setup_s;
  WindowRates rates;
  WindowRates traced_rates;
  WindowQuantiles quantiles;
  Counts measured;
  std::string transport;
  SpanLog log(0);
  // Sums over the rounds' traced phases.
  double traced_ops = 0;
  int64_t server_cpu = 0;
  int64_t client_cpu = 0;
  uint64_t syscalls = 0;
  uint64_t waits = 0;
  uint64_t events = 0;
  uint64_t batches = 0;
  uint64_t batched_gets = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t t0 = NowNs();
    Setup s;
    std::string error;
    if (!MakeSetup(options.seed, &s, &error)) {
      std::fprintf(stderr, "kvbench: serve-kv setup failed: %s\n", error.c_str());
      std::exit(3);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    s3fifo::CacheServer& server = *s.server;
    Client& client = *s.client;
    if (round == 0) {
      transport = server.transport_name();
      if (!server.transport_note().empty()) {
        std::fprintf(stderr, "serve-kv: %s\n", server.transport_note().c_str());
      }
    }

    client.RunPhase(kWarmupSeconds, false, nullptr, &result);
    rates.Append(client.RunPhase(measure_s, true, nullptr, &result));
    quantiles.Append(client.quantiles());
    measured.gets += client.measured().gets;
    measured.hits += client.measured().hits;

    const int tid = CurrentTid();
    const s3fifo::ServerStats before = server.TotalStats();
    const uint64_t replies_before = client.counts().replies();
    const int64_t server_cpu0 = OtherThreadsCpuNs(tid);
    const int64_t client_cpu0 = ThreadCpuNs();
    if (options.trace) {
      traced_rates.Append(client.RunPhase(traced_s, false, &log, &result));
    }
    client_cpu += ThreadCpuNs() - client_cpu0;
    server_cpu += OtherThreadsCpuNs(tid) - server_cpu0;
    const s3fifo::ServerStats after = server.TotalStats();
    traced_ops += static_cast<double>(client.counts().replies() - replies_before);
    syscalls += after.transport_syscalls - before.transport_syscalls;
    waits += after.transport_waits - before.transport_waits;
    events += after.transport_events - before.transport_events;
    batches += after.batches - before.batches;
    batched_gets += after.batched_gets - before.batched_gets;

    // Quiesced: every request has its reply, so the server's counters are
    // exact and must equal the client's.
    const Counts& c = client.counts();
    if (!client.aborted() && (after.cmd_get != c.gets || after.cmd_set != c.sets ||
                              after.cmd_delete != c.deletes || after.get_hits != c.hits)) {
      result.Fail("serve-kv: server counters (get " + std::to_string(after.cmd_get) + ", set " +
                  std::to_string(after.cmd_set) + ", delete " + std::to_string(after.cmd_delete) +
                  ", hits " + std::to_string(after.get_hits) + ") differ from the client's (" +
                  std::to_string(c.gets) + ", " + std::to_string(c.sets) + ", " +
                  std::to_string(c.deletes) + ", " + std::to_string(c.hits) + ")");
    }
    result.attempted += c.replies() + (client.aborted() ? 1 : 0);
    if (client.aborted()) {
      break;
    }
  }
  result.transport = transport;
  const double hit_ratio =
      measured.gets == 0 ? 0.0 : static_cast<double>(measured.hits) / measured.gets;
  std::fprintf(stderr,
               "serve-kv: transport %s, %u connections at depth 1, %zu intervals, hit ratio "
               "%.4f, %llu round-trip samples\n",
               transport.c_str(), kConns, rates.cpu.size(), hit_ratio,
               static_cast<unsigned long long>(quantiles.samples));

  if (!options.trace) {
    AddEndToEnd(rates, quantiles, hit_ratio, setup_s, &result);
    return result;
  }

  const std::vector<SpanTotals> totals = MergeTotals({&log});
  auto mean = [&](const char* name) {
    const uint64_t n = Count(totals, name);
    return n == 0 ? 0.0 : static_cast<double>(TotalNs(totals, name)) / n;
  };
  std::map<std::string, double> layer;
  layer["server.rtt_get_ns"] = mean("server.get");
  layer["server.rtt_set_ns"] = mean("server.set");
  layer["concurrent.get_hit_ns"] = mean("concurrent.get_hit");
  layer["concurrent.get_miss_ns"] = mean("concurrent.get_miss");
  layer["server.cpu_ns_per_op"] = server_cpu / traced_ops;
  layer["client.cpu_ns_per_op"] = client_cpu / traced_ops;
  layer["server.syscalls_per_op"] = static_cast<double>(syscalls) / traced_ops;
  layer["server.events_per_wait"] =
      waits == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(waits);
  layer["server.keys_per_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(batched_gets) / static_cast<double>(batches);
  ReportTrace(options, {&log}, rates, traced_rates, &layer);
  AddLayerMetrics(layer, &result);
  return result;
}

}  // namespace kvbench
