// Contract tests for the bare Transport, driven over loopback TCP by a plain
// socket peer. The handler speaks a line protocol: every "\n"-terminated
// line is recorded and answered.
//  * a request and a half-close in one burst: the reply, then OnClose;
//  * a frame torn across two writes is parsed once;
//  * a handler held at the out watermark: reading pauses with `in` bounded,
//    and every reply arrives in order once the peer drains, also when the
//    peer half-closed behind the blocked requests;
//  * Close() on the current or another connection from inside OnInput.
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "src/server/transport.h"

namespace s3fifo {
namespace {

using Clock = std::chrono::steady_clock;

// Nonblocking listener on an ephemeral loopback port. A nonzero `buf_bytes`
// pins the socket buffers of every accepted connection (they inherit the
// listener's), so backpressure sets in after a few hundred KiB.
int Listen(uint16_t* port, int buf_bytes = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (buf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  listen(fd, 16);
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

int Connect(uint16_t port, int buf_bytes = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (buf_bytes > 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes, sizeof(buf_bytes));
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes, sizeof(buf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = send(fd, data.data() + sent, data.size() - sent, 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

// Reads until EOF (or a 2 s timeout); the peer's view of the connection.
std::string ReadToEof(int fd, bool* eof) {
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string buf;
  char chunk[4096];
  *eof = false;
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      *eof = n == 0;
      return buf;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

// Reply k of the backpressure test: k in 15 zero-padded digits, then "\n".
void SeqRecord(uint64_t k, char* out) {
  for (int d = 14; d >= 0; --d) {
    out[d] = static_cast<char>('0' + k % 10);
    k /= 10;
  }
  out[15] = '\n';
}

class LineHandler : public Transport::Handler {
 public:
  explicit LineHandler(Transport* transport) : transport_(transport) {}

  void* OnAccept(Transport::Conn* conn) override {
    live.push_back(conn);
    return this;
  }

  void OnInput(Transport::Conn* conn, void* /*ud*/) override {
    ++inputs;
    while (!Transport::OutFull(conn)) {
      const std::string_view buf = conn->in.view();
      const size_t nl = buf.find('\n');
      if (nl == std::string_view::npos) {
        return;
      }
      const std::string line(buf.substr(0, nl));
      conn->in.Consume(nl + 1);
      ++line_count;
      if (record_lines) {
        lines.push_back(line);
      }
      if (seq_replies) {
        char reply[16];
        SeqRecord(line_count - 1, reply);
        conn->out.insert(conn->out.end(), reply, reply + 16);
      } else {
        AppendLine(conn, line);
      }
      if (line == "close-self") {
        transport_->Close(conn);
        return;
      }
      if (line == "close-other") {
        for (Transport::Conn* other : live) {
          if (other != conn) {
            transport_->Close(other);
          }
        }
      }
    }
  }

  void OnClose(Transport::Conn* conn, void* /*ud*/) override {
    closed.push_back(conn);
    live.erase(std::find(live.begin(), live.end(), conn));
  }

  static void AppendLine(Transport::Conn* conn, std::string_view line) {
    conn->out.insert(conn->out.end(), line.begin(), line.end());
    conn->out.push_back('\n');
  }

  bool record_lines = true;
  bool seq_replies = false;  // answer line k with k as 15 digits + "\n"
  uint64_t inputs = 0;
  uint64_t line_count = 0;
  std::vector<std::string> lines;
  std::vector<Transport::Conn*> live;
  std::vector<Transport::Conn*> closed;

 private:
  Transport* transport_;
};

class TransportTest : public ::testing::Test {
 protected:
  void Start(int buf_bytes = 0) {
    listen_fd_ = Listen(&port_, buf_bytes);
    std::string error;
    ASSERT_TRUE(transport_.Init(&handler_, listen_fd_, &error)) << error;
  }
  void TearDown() override {
    if (listen_fd_ >= 0) {
      close(listen_fd_);
    }
  }

  // Polls until `done` holds or `timeout_ms` passes; returns `done()`.
  bool PollUntil(const std::function<bool()>& done, int timeout_ms = 2000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    while (!done() && Clock::now() < deadline) {
      EXPECT_TRUE(transport_.Poll(10));
    }
    return done();
  }

  Transport transport_;
  LineHandler handler_{&transport_};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

TEST_F(TransportTest, RequestAndHalfCloseInOneBurstGetReplyThenOnClose) {
  Start();
  const int peer = Connect(port_);
  SendAll(peer, "ping\n");
  shutdown(peer, SHUT_WR);
  ASSERT_TRUE(PollUntil([&] { return handler_.closed.size() == 1; }));
  EXPECT_EQ(handler_.lines, std::vector<std::string>{"ping"});
  bool eof = false;
  EXPECT_EQ(ReadToEof(peer, &eof), "ping\n");
  EXPECT_TRUE(eof);
  close(peer);
}

TEST_F(TransportTest, FrameSplitAcrossTwoWritesIsParsedOnce) {
  Start();
  const int peer = Connect(port_);
  SendAll(peer, "hel");
  PollUntil([] { return false; }, 100);  // the torn frame sits in `in`
  EXPECT_TRUE(handler_.lines.empty());
  EXPECT_GE(handler_.inputs, 1u);
  SendAll(peer, "lo\n");
  ASSERT_TRUE(PollUntil([&] { return !handler_.lines.empty(); }));
  PollUntil([] { return false; }, 50);
  EXPECT_EQ(handler_.lines, std::vector<std::string>{"hello"});
  shutdown(peer, SHUT_WR);
  ASSERT_TRUE(PollUntil([&] { return handler_.closed.size() == 1; }));
  bool eof = false;
  EXPECT_EQ(ReadToEof(peer, &eof), "hello\n");
  EXPECT_TRUE(eof);
  close(peer);
}

// A nonblocking peer that pipelines `requests` one-line requests ("r\n")
// and checks the reply stream record by record (reply k is SeqRecord(k)).
// Socket buffers are pinned small, so backpressure sets in early.
class PipelinePeer {
 public:
  static constexpr int kSocketBuf = 64 * 1024;

  PipelinePeer(uint16_t port, uint64_t requests)
      : fd_(Connect(port, kSocketBuf)),
        requests_(requests),
        first_mismatch_(requests) {
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    for (uint64_t i = 0; i < requests; ++i) {
      stream_ += "r\n";
    }
  }
  ~PipelinePeer() { close(fd_); }

  int fd() const { return fd_; }
  bool all_sent() const { return sent_ == stream_.size(); }

  // Sends as much as the socket takes; true if anything went out.
  bool SendMore() {
    const size_t before = sent_;
    while (sent_ < stream_.size()) {
      const ssize_t n = send(fd_, stream_.data() + sent_,
                             stream_.size() - sent_, MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent_ += static_cast<size_t>(n);
    }
    return sent_ != before;
  }

  // Reads what has arrived; false once the stream hit EOF.
  bool Receive() {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        eof_ = true;
        return false;
      }
      if (n < 0) {
        return true;
      }
      partial_.append(chunk, static_cast<size_t>(n));
      size_t off = 0;
      for (; off + 16 <= partial_.size(); off += 16, ++replies_) {
        char want[16];
        SeqRecord(replies_, want);
        if (first_mismatch_ == requests_ &&
            partial_.compare(off, 16, want, 16) != 0) {
          first_mismatch_ = replies_;
        }
      }
      partial_.erase(0, off);
    }
  }

  // Every reply arrived, whole and in order.
  void ExpectAllReplies() const {
    EXPECT_TRUE(all_sent());
    EXPECT_EQ(replies_, requests_);
    EXPECT_TRUE(partial_.empty());
    EXPECT_EQ(first_mismatch_, requests_) << "reply stream diverged";
  }

  uint64_t replies() const { return replies_; }
  bool eof() const { return eof_; }

 private:
  int fd_;
  uint64_t requests_;
  std::string stream_;
  size_t sent_ = 0;
  uint64_t replies_ = 0;
  uint64_t first_mismatch_;  // `requests_` while every reply matched
  std::string partial_;
  bool eof_ = false;
};

// The peer pipelines 1.5M requests (3 MB) without reading the 24 MB of
// replies. The handler stops at the out watermark, the transport fills
// `in` and stops reading, and the peer's sends stall. Then the peer drains
// while it sends the rest: every reply must arrive, in order.
TEST_F(TransportTest, HandlerAboveWatermarkPausesReadingAndLosesNothing) {
  constexpr uint64_t kRequests = 1500000;
  handler_.record_lines = false;
  handler_.seq_replies = true;
  Start(PipelinePeer::kSocketBuf);
  PipelinePeer peer(port_, kRequests);

  // Phase 1: the peer never reads; run until its sends stall for 300 ms
  // and 100 polls in a row.
  auto last_progress = Clock::now();
  int idle_polls = 0;
  const auto give_up = Clock::now() + std::chrono::seconds(20);
  while ((idle_polls < 100 ||
          Clock::now() - last_progress < std::chrono::milliseconds(300)) &&
         Clock::now() < give_up) {
    if (peer.SendMore()) {
      last_progress = Clock::now();
      idle_polls = 0;
    }
    ASSERT_TRUE(transport_.Poll(1));
    ++idle_polls;
  }
  ASSERT_EQ(handler_.live.size(), 1u);
  const Transport::Conn* conn = handler_.live[0];
  EXPECT_FALSE(peer.all_sent()) << "the transport never stopped reading";
  EXPECT_TRUE(Transport::OutFull(conn));
  EXPECT_LE(conn->in.size(), conn->in.max_capacity());
  EXPECT_GT(conn->in.size(), conn->in.max_capacity() / 2)
      << "reading paused before `in` filled";

  // Phase 2: drain while sending the rest.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (peer.replies() < kRequests && Clock::now() < deadline) {
    peer.SendMore();
    ASSERT_TRUE(transport_.Poll(0));
    peer.Receive();
  }
  peer.ExpectAllReplies();
  EXPECT_EQ(handler_.line_count, kRequests);
  EXPECT_TRUE(handler_.closed.empty());
}

// The peer pipelines 300k requests and half-closes without reading. The
// 4.8 MB of replies hold the handler at the watermark, so the EOF is read
// while requests wait unparsed in `in`. Every request is still answered,
// and only then does the connection close.
TEST_F(TransportTest, HalfCloseBehindBlockedOutputAnswersEveryRequest) {
  constexpr uint64_t kRequests = 300000;
  handler_.record_lines = false;
  handler_.seq_replies = true;
  Start(PipelinePeer::kSocketBuf);
  PipelinePeer peer(port_, kRequests);
  const auto give_up = Clock::now() + std::chrono::seconds(20);
  while (!peer.all_sent() && Clock::now() < give_up) {
    peer.SendMore();
    ASSERT_TRUE(transport_.Poll(1));
  }
  ASSERT_TRUE(peer.all_sent());
  shutdown(peer.fd(), SHUT_WR);
  ASSERT_TRUE(PollUntil([&] {
    return handler_.live.size() == 1 && Transport::OutFull(handler_.live[0]);
  }));
  PollUntil([] { return false; }, 100);  // reads the rest and the EOF
  ASSERT_EQ(handler_.live.size(), 1u);
  EXPECT_LT(handler_.line_count, kRequests);

  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!peer.eof() && Clock::now() < deadline) {
    ASSERT_TRUE(transport_.Poll(0));
    peer.Receive();
  }
  EXPECT_TRUE(peer.eof());
  peer.ExpectAllReplies();
  EXPECT_EQ(handler_.closed.size(), 1u);
}

// Both peers' bytes land before one Poll, so one dispatch batch holds both
// events: A's OnInput closes B whether or not B's event came first, and a
// later event for B must not touch it. Then A closes itself mid-input.
TEST_F(TransportTest, CloseFromOnInputOfSelfOrAnotherConnectionIsClean) {
  Start();
  const int a = Connect(port_);
  ASSERT_TRUE(PollUntil([&] { return handler_.live.size() == 1; }));
  Transport::Conn* conn_a = handler_.live[0];
  const int b = Connect(port_);
  ASSERT_TRUE(PollUntil([&] { return handler_.live.size() == 2; }));
  Transport::Conn* conn_b = handler_.live[1];

  SendAll(b, "x\n");
  SendAll(a, "close-other\n");
  ASSERT_TRUE(PollUntil([&] { return handler_.closed.size() == 1; }));
  EXPECT_EQ(handler_.closed[0], conn_b);
  bool eof = false;
  const std::string b_got = ReadToEof(b, &eof);
  EXPECT_TRUE(b_got.empty() || b_got == "x\n") << b_got;
  EXPECT_TRUE(eof);

  SendAll(a, "close-self\nignored\n");
  ASSERT_TRUE(PollUntil([&] { return handler_.closed.size() == 2; }));
  EXPECT_EQ(handler_.closed[1], conn_a);
  EXPECT_EQ(ReadToEof(a, &eof), "close-other\nclose-self\n");
  EXPECT_TRUE(eof);
  EXPECT_TRUE(handler_.live.empty());
  EXPECT_EQ(std::count(handler_.lines.begin(), handler_.lines.end(), "ignored"),
            0);
  close(a);
  close(b);
}

}  // namespace
}  // namespace s3fifo
