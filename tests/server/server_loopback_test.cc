// End-to-end tests for the cache server over loopback TCP:
//  * protocol smoke (set/get/delete/stats, pipelining, noreply, fragmented
//    writes, protocol errors, quit);
//  * backpressure: a deep pipeline from a client that does not read, then
//    drains, gets every reply;
//  * the §5.3 consistency check taken all the way through the network
//    stack: a deterministic trace replayed through a shards=1 server must
//    produce hit/miss counts IDENTICAL to the simulator's s3fifo policy —
//    the server's parsing, batching, and GetBatch pipeline may not change a
//    single eviction decision.
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <arpa/inet.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_s3fifo.h"
#include "src/core/cache_factory.h"
#include "src/server/cache_server.h"
#include "src/server/loadgen.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"
#include "src/workload/zipf_workload.h"

namespace s3fifo {
namespace {

// Minimal blocking client for the smoke tests.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~TestClient() { close(fd_); }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void Send(std::string_view data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = send(fd_, data.data() + sent, data.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  // Reads until the accumulated response ends with `terminator` (or the
  // expected number of lines arrived); 2s timeout turns a hang into a fail.
  std::string ReadUntil(std::string_view suffix) {
    timeval tv{2, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::string buf;
    char chunk[4096];
    while (buf.size() < suffix.size() ||
           buf.compare(buf.size() - suffix.size(), suffix.size(), suffix) != 0) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        // A recv with SO_RCVTIMEO set is never restarted after a signal
        // handler runs, even one installed with SA_RESTART.
        continue;
      }
      if (n <= 0) {
        ADD_FAILURE() << "short read; got so far: " << buf;
        break;
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
    return buf;
  }

  // True if the server closed the connection (EOF within the 2s timeout).
  bool AtEof() {
    timeval tv{2, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    char ch;
    ssize_t n;
    do {
      n = recv(fd_, &ch, 1, 0);
    } while (n < 0 && errno == EINTR);
    return n == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

ServerConfig SmallServerConfig() {
  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = 1000;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  return config;
}

TEST(CacheServerTest, SetGetDeleteRoundTrip) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("set apple 0 0 5\r\ncrisp\r\n");
  EXPECT_EQ(client.ReadUntil("STORED\r\n"), "STORED\r\n");
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE apple 0 5\r\ncrisp\r\nEND\r\n");
  client.Send("set apple 0 0 7\r\nreplace\r\n");
  EXPECT_EQ(client.ReadUntil("STORED\r\n"), "STORED\r\n");
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE apple 0 7\r\nreplace\r\nEND\r\n");
  client.Send("delete apple\r\n");
  EXPECT_EQ(client.ReadUntil("DELETED\r\n"), "DELETED\r\n");
  client.Send("delete apple\r\n");
  EXPECT_EQ(client.ReadUntil("NOT_FOUND\r\n"), "NOT_FOUND\r\n");
  // A get after delete is an on-demand-fill miss: responds END (miss) and
  // re-admits the object with a generated payload.
  client.Send("get apple\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "END\r\n");
  // The refilled object now hits, serving the generated 8-byte payload.
  client.Send("get apple\r\n");
  const std::string refill = client.ReadUntil("END\r\n");
  EXPECT_EQ(refill.rfind("VALUE apple 0 8\r\n", 0), 0u) << refill;
  EXPECT_EQ(refill.size(), std::string("VALUE apple 0 8\r\n").size() + 8 + 2 + 5);
  server.Stop();
}

TEST(CacheServerTest, PipelinedCommandsAnswerInOrder) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One write carrying many commands; responses must come back in command
  // order with the gets fused into server-side batches.
  client.Send("set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\n");
  client.ReadUntil("STORED\r\nSTORED\r\n");
  client.Send("get a\r\nget b\r\nget miss1\r\nget a b\r\nversion\r\n");
  const std::string resp = client.ReadUntil("VERSION s3fifo-server 1.0\r\n");
  EXPECT_EQ(resp,
            "VALUE a 0 1\r\nA\r\nEND\r\n"
            "VALUE b 0 1\r\nB\r\nEND\r\n"
            "END\r\n"
            "VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nB\r\nEND\r\n"
            "VERSION s3fifo-server 1.0\r\n");

  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.cmd_get, 5u);  // a, b, miss1, a, b
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_gets, 5u);
  server.Stop();
}

TEST(CacheServerTest, FragmentedWritesReassemble) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Send a set + get one byte at a time: the incremental parser must
  // reassemble across reads without consuming a torn frame.
  const std::string stream = "set torn 0 0 3\r\nxyz\r\nget torn\r\n";
  for (char ch : stream) {
    client.Send(std::string_view(&ch, 1));
  }
  EXPECT_EQ(client.ReadUntil("END\r\n"),
            "STORED\r\nVALUE torn 0 3\r\nxyz\r\nEND\r\n");
  server.Stop();
}

TEST(CacheServerTest, ProtocolErrorsDoNotDesynchronize) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("bogus\r\nset k 0 0 1\r\nZ\r\nget k\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"),
            "ERROR\r\nSTORED\r\nVALUE k 0 1\r\nZ\r\nEND\r\n");
  EXPECT_EQ(server.TotalStats().parse_errors, 1u);
  server.Stop();
}

TEST(CacheServerTest, NoreplySuppressesResponses) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // noreply set and delete produce no response lines; the trailing get
  // proves the set still executed and nothing else was emitted before it.
  client.Send("set s 0 0 1 noreply\r\nS\r\ndelete missing noreply\r\nget s\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "VALUE s 0 1\r\nS\r\nEND\r\n");
  server.Stop();
}

TEST(CacheServerTest, StatsReportServerCounters) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("get one\r\nget one\r\nstats\r\n");
  // Three responses each end in END; accumulate until the stats block (the
  // only one with STAT lines) has fully arrived.
  std::string resp;
  do {
    resp += client.ReadUntil("END\r\n");
  } while (resp.find("STAT curr_items") == std::string::npos);
  EXPECT_NE(resp.find("STAT cmd_get 2\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT get_hits 1\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT get_misses 1\r\n"), std::string::npos);
  EXPECT_NE(resp.find("STAT curr_items 1\r\n"), std::string::npos);
  server.Stop();
}

TEST(CacheServerTest, QuitClosesTheConnection) {
  CacheServer server(SmallServerConfig());
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  client.Send("get x\r\nquit\r\n");
  EXPECT_EQ(client.ReadUntil("END\r\n"), "END\r\n");
  // After quit the server closes its side; the next read sees EOF.
  EXPECT_TRUE(client.AtEof());
  server.Stop();
}

// A client pipelines far more gets than the server may answer before the
// client reads, and only then drains. The server blocks parsing at the out
// watermark and pauses reading once its in-buffer fills; a drain resumes
// parsing and then the paused read. When a resumed read could re-enter the
// parser with an outer parse pass still on the stack, the nested reads
// filled the in-buffer and closed the connection as oversized, freeing it
// under the outer pass: heap-use-after-free under ASan, a crash without.
TEST(CacheServerTest, DeepPipelineWithoutReadingGetsEveryReply) {
  constexpr uint64_t kGets = 1000000;
  ServerConfig config = SmallServerConfig();
  config.cache.value_size = 64;
  CacheServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string value(64, 'v');
  client.Send("set 1 0 0 64\r\n" + value + "\r\n");
  ASSERT_EQ(client.ReadUntil("STORED\r\n"), "STORED\r\n");

  std::string stream;
  stream.reserve(kGets * 7);
  for (uint64_t i = 0; i < kGets; ++i) {
    stream += "get 1\r\n";
  }
  std::atomic<bool> sent_all{false};
  std::thread sender([&] {
    size_t sent = 0;
    while (sent < stream.size()) {
      const ssize_t n = send(client.fd(), stream.data() + sent,
                             stream.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return;  // the server closed the connection
      }
      sent += static_cast<size_t>(n);
    }
    sent_all = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(500));

  // Every reply is the same hit; check the drained stream byte by byte.
  const std::string reply = "VALUE 1 0 64\r\n" + value + "\r\nEND\r\n";
  const uint64_t expected = kGets * reply.size();
  timeval tv{10, 0};
  setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  uint64_t received = 0;
  uint64_t first_mismatch = expected;
  std::vector<char> chunk(1 << 16);
  while (received < expected) {
    const ssize_t n = recv(client.fd(), chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF, reset or timeout
    }
    for (ssize_t i = 0; i < n && first_mismatch == expected; ++i) {
      if (chunk[i] != reply[(received + i) % reply.size()]) {
        first_mismatch = received + i;
      }
    }
    received += static_cast<uint64_t>(n);
  }
  shutdown(client.fd(), SHUT_RDWR);  // unblocks the sender if it is stuck
  sender.join();

  EXPECT_TRUE(sent_all);
  EXPECT_EQ(received, expected);
  EXPECT_EQ(first_mismatch, expected) << "reply stream diverged";
  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.cmd_get, kGets);
  EXPECT_EQ(stats.get_hits, kGets);
  server.Stop();
}

// A closed loop at depth 0 never issues a request, so it used to poll
// forever; RunLoadGen refuses it before connecting.
TEST(LoadGenTest, ClosedLoopWithZeroDepthFails) {
  std::vector<Request> reqs(10);
  const Trace trace(std::move(reqs), "depth0");
  LoadGenConfig lg;
  lg.port = 1;  // never contacted
  lg.pipeline_depth = 0;
  const LoadGenResult r = RunLoadGen(lg, trace);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("pipeline_depth"), std::string::npos) << r.error;
}

// --- The tentpole acceptance check -----------------------------------------

// Bit-exact parity: trace -> loadgen -> TCP -> parser -> per-connection
// batches -> ConcurrentS3Fifo(shards=1) must equal trace -> Simulate over
// the s3fifo policy, hit for hit. Decimal keys round-trip through KeyToId,
// a single connection preserves request order, and capacity is divisible by
// 10 so the prototype's ghost capacity (capacity - small) equals the
// simulator's (0.9 * capacity).
TEST(ServerSimulatorParityTest, HitCountsMatchSimulateBitExactly) {
  constexpr uint64_t kObjects = 20000;
  constexpr uint64_t kRequests = 60000;
  constexpr uint64_t kCapacity = 2000;

  // Deterministic get-only Zipf trace.
  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(97);
  std::vector<Request> reqs;
  reqs.reserve(kRequests);
  for (uint64_t i = 0; i < kRequests; ++i) {
    Request r;
    r.id = zipf.Sample(rng);
    reqs.push_back(r);
  }
  const Trace trace(std::move(reqs), "parity");

  // Reference: the simulator's s3fifo with the fingerprint ghost table.
  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";
  auto sim_cache = CreateCache("s3fifo", sc);
  const SimResult sim = Simulate(trace, *sim_cache);

  // Server: one worker, one shard, driven over loopback by one pipelined
  // connection.
  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = kCapacity;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  ConcurrentS3Fifo cache(config.cache);
  CacheServer server(config, &cache);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  LoadGenConfig lg;
  lg.port = server.port();
  lg.threads = 1;
  lg.connections = 1;
  lg.pipeline_depth = 32;
  const LoadGenResult r = RunLoadGen(lg, trace);
  ASSERT_TRUE(r.ok) << r.error;

  EXPECT_EQ(r.ops, kRequests);
  EXPECT_EQ(r.gets, kRequests);
  EXPECT_EQ(r.get_hits, sim.hits);
  EXPECT_EQ(kRequests - r.get_hits, sim.misses);

  // The server's own counters agree with what the client observed.
  const ServerStats stats = server.TotalStats();
  EXPECT_EQ(stats.get_hits, r.get_hits);
  EXPECT_EQ(stats.get_misses, kRequests - r.get_hits);
  EXPECT_EQ(stats.cmd_get, kRequests);
  server.Stop();
}

// The same parity must hold when requests flow through mget multi-key
// batches of varying size — key grouping changes GetBatch call shapes but
// may not change outcomes.
TEST(ServerSimulatorParityTest, MultiGetGroupingPreservesOutcomes) {
  constexpr uint64_t kObjects = 5000;
  constexpr uint64_t kRequests = 20000;
  constexpr uint64_t kCapacity = 500;

  ZipfDistribution zipf(kObjects, 1.0);
  Rng rng(13);
  std::vector<uint64_t> ids;
  ids.reserve(kRequests);
  for (uint64_t i = 0; i < kRequests; ++i) {
    ids.push_back(zipf.Sample(rng));
  }

  CacheConfig sc;
  sc.capacity = kCapacity;
  sc.params = "ghost_type=table";
  auto sim_cache = CreateCache("s3fifo", sc);
  uint64_t sim_hits = 0;
  for (const uint64_t id : ids) {
    Request r;
    r.id = id;
    sim_hits += sim_cache->Get(r) ? 1 : 0;
  }

  ServerConfig config;
  config.workers = 1;
  config.cache.capacity_objects = kCapacity;
  config.cache.value_size = 8;
  config.cache.cache_shards = 1;
  CacheServer server(config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Group ids into mgets of 1..7 keys; count VALUE lines in the responses.
  // Counting by substring is sound here: every payload is a generated fill
  // of one repeated byte, which can never contain "VALUE " or "END\r\n".
  uint64_t server_hits = 0;
  Rng group_rng(5);
  size_t i = 0;
  std::string batch;
  uint64_t batch_groups = 0;
  while (i < ids.size()) {
    std::string cmd = "mget";
    const size_t group = 1 + group_rng.NextBounded(7);
    for (size_t k = 0; k < group && i < ids.size(); ++k, ++i) {
      cmd += " " + std::to_string(ids[i]);
    }
    batch += cmd + "\r\n";
    ++batch_groups;
    if (batch.size() > 16384 || i >= ids.size()) {
      client.Send(batch);
      uint64_t ends = 0;
      while (ends < batch_groups) {
        const std::string part = client.ReadUntil("END\r\n");
        for (size_t pos = 0;
             (pos = part.find("END\r\n", pos)) != std::string::npos; pos += 5) {
          ++ends;
        }
        for (size_t pos = 0;
             (pos = part.find("VALUE ", pos)) != std::string::npos; pos += 6) {
          ++server_hits;
        }
      }
      batch.clear();
      batch_groups = 0;
    }
  }
  EXPECT_EQ(server_hits, sim_hits);
  server.Stop();
}

}  // namespace
}  // namespace s3fifo
