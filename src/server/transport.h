// The event loop of one cache-server worker or load-generator thread: a
// pull-style readiness loop over edge-triggered epoll with per-fd
// nonblocking read/send syscalls.
//
// The transport owns each connection's buffers: `in` (bytes read, not yet
// consumed by the handler) and `out` (bytes the handler rendered, not yet
// accepted by the kernel). On an EPOLLIN edge it reads into `in` until a
// read returns less than the space it offered, until EAGAIN, or until `in`
// is full; after each read it calls the handler's OnInput once, which
// parses what is buffered and appends replies to `out`, and then sends
// `out` eagerly, falling back to the EPOLLOUT edge on EAGAIN. A stream read
// drains the socket's receive queue, so a short read means the socket is
// empty and the next arrival raises a new edge; only once the peer has shut
// its write side (EPOLLRDHUP) does it read on, to see the EOF.
//
// Backpressure lives here too. The handler stops consuming input while
// OutFull() holds; the transport keeps reading until `in` is full and then
// pauses, so TCP flow control backs the peer up. When a drain brings `out`
// back under the watermark, the transport runs OnInput again and then the
// pending read. A full `in` with `out` under the watermark means the handler
// could not parse a frame out of a whole buffer: the transport closes the
// connection, which bounds what one peer can make it hold.
//
// Invariant: the handler is called only from Poll. Every method a callback
// may call (OutFull, Flush, Close, Adopt, Wake) returns without calling the
// handler; a close they cause is delivered through OnClose at the end of the
// dispatch batch. So no callback ever re-enters another.
//
// Threading: a Transport instance belongs to one thread. Only Wake() may be
// called from other threads.
#ifndef SRC_SERVER_TRANSPORT_H_
#define SRC_SERVER_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/server/ring_buffer.h"

namespace s3fifo {

// Data-plane efficiency counters, maintained by the owning thread (plain
// fields — publish through atomics to read them from elsewhere). Together
// they make syscalls/op and events/wait observable without perf(1).
struct TransportCounters {
  uint64_t syscalls = 0;       // every kernel crossing made by the data plane
  uint64_t waits = 0;          // epoll_wait calls
  uint64_t events = 0;         // readiness events dispatched
  uint64_t bytes_read = 0;     // bytes read from connections
  uint64_t bytes_written = 0;  // bytes the kernel accepted from `out`
};

class Transport {
 public:
  // Parsing pauses while more than this many bytes wait in `out`.
  static constexpr size_t kOutHighWatermark = 4 << 20;

  // One connection. The handler reads `in` (calling in.Consume for what it
  // used), appends to `out` and owns `ud`; the rest is the transport's.
  class Conn {
   public:
    RingBuffer in;
    std::vector<char> out;
    void* ud = nullptr;

   private:
    friend class Transport;
    int fd = -1;
    size_t out_off = 0;       // out[0, out_off) already sent
    bool read_ready = false;  // an EPOLLIN edge not yet read to empty
    bool rdhup = false;       // the peer shut its write side: read to EOF
    bool blocked = false;     // OnInput stopped at the watermark
    bool closing = false;     // close once `out` drains; no more input
    bool dead = false;        // fd closed; freed at the end of the dispatch
  };

  class Handler {
   public:
    virtual ~Handler() = default;
    // A connection was accepted. Returns the opaque state (`ud`) passed to
    // every later callback for this connection; may not be null.
    virtual void* OnAccept(Conn* conn) = 0;
    // `conn->in` holds input. Consume every complete frame, appending the
    // replies to `conn->out`, but stop while OutFull(conn): the transport
    // calls again once `out` drains.
    virtual void OnInput(Conn* conn, void* ud) = 0;
    // The connection is closed (by the peer, an error, or Close()) and its
    // fd is gone; `conn` is freed after this returns. Release `ud`.
    virtual void OnClose(Conn* conn, void* ud) = 0;
  };

  Transport() = default;
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // `listen_fd`: a bound, listening, nonblocking socket (caller keeps
  // ownership), or -1 for a client-only transport. Creates the epoll
  // instance and the wake eventfd. False on failure with *error set.
  bool Init(Handler* handler, int listen_fd, std::string* error);

  // One event-loop iteration: waits up to `timeout_ms` (-1 = forever) for
  // events and dispatches them through the handler. Returns false only on
  // an unrecoverable epoll failure. Never call it from a callback.
  bool Poll(int timeout_ms);

  // Thread-safe: interrupts a concurrent (or the next) Poll().
  void Wake();

  // Adopts a connected nonblocking fd (load-generator client connections).
  // The transport owns the fd from here on.
  Conn* Adopt(int fd, void* ud);

  // True while more than kOutHighWatermark bytes wait in `conn->out`.
  static bool OutFull(const Conn* conn) {
    return conn->out.size() - conn->out_off > kOutHighWatermark;
  }

  // Sends `conn->out` now, as far as the socket takes it; the EPOLLOUT edge
  // sends the rest. Only needed outside OnInput: the transport flushes
  // after every OnInput call.
  void Flush(Conn* conn);

  // Stops reading and closes the connection once `out` has drained.
  void Close(Conn* conn);

  const TransportCounters& counters() const { return counters_; }

 private:
  void HandleAccept();
  void ReadReady(Conn* c);
  void Serve(Conn* c);
  void CloseInternal(Conn* c);
  void DeliverClosures();

  Handler* handler_ = nullptr;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Distinct addresses used as epoll_event tags for non-connection fds.
  char listen_tag_ = 0;
  char wake_tag_ = 0;
  std::vector<Conn*> conns_;
  std::vector<Conn*> dead_;  // closed; OnClose and free at dispatch end
  TransportCounters counters_;
};

}  // namespace s3fifo

#endif  // SRC_SERVER_TRANSPORT_H_
