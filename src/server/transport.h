// The event loop of one cache-server worker or load-generator thread:
// edge-triggered epoll with per-fd nonblocking read/send syscalls.
//
// A Transport accepts connections, moves bytes between sockets and the
// protocol layer, and wakes up for shutdown. The protocol layer implements
// Transport::Handler:
//
//  * incoming bytes are pushed: the transport asks the handler for writable
//    space (GetReadBuffer) and commits bytes into it (OnData). The handler
//    parses during OnData; views into its own buffer stay valid. Returning
//    false from GetReadBuffer pauses reading (backpressure) until
//    ResumeRead().
//
//  * outgoing bytes are owned by the transport: Send() swaps the caller's
//    buffer into the transport's per-connection send queue (no copy; the
//    caller gets back an empty buffer, possibly with recycled capacity).
//    OnWritable fires when the queue fully drains.
//
// Threading: a Transport instance belongs to one thread. Only Wake() may be
// called from other threads.
#ifndef SRC_SERVER_TRANSPORT_H_
#define SRC_SERVER_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace s3fifo {

// Data-plane efficiency counters, maintained by the owning thread (plain
// fields — publish through atomics to read them from elsewhere). Together
// they make syscalls/op and events/wait observable without perf(1).
struct TransportCounters {
  uint64_t syscalls = 0;  // every kernel crossing made by the data plane
  uint64_t waits = 0;     // epoll_wait calls
  uint64_t events = 0;    // readiness events dispatched
  uint64_t accepts = 0;   // connections accepted by the transport
};

class Transport {
 public:
  // Per-connection state owned by the transport (defined in transport.cc).
  struct Conn;

  class Handler {
   public:
    virtual ~Handler() = default;
    // A connection was accepted. Returns the opaque state (`ud`) passed to
    // every later callback for this connection; may not be null.
    virtual void* OnAccept(Conn* conn) = 0;
    // The transport has incoming bytes. Return >=1 byte of writable space,
    // or false to pause reading until ResumeRead() (the bytes stay in the
    // socket; TCP flow control eventually takes over).
    virtual bool GetReadBuffer(Conn* conn, void* ud, char** buf,
                               size_t* cap) = 0;
    // `n` bytes were written into the space returned by the immediately
    // preceding GetReadBuffer call. Parse and execute here; calling Send()
    // and Close() on any conn of this transport is allowed.
    virtual void OnData(Conn* conn, void* ud, size_t n) = 0;
    // The send queue drained to empty (all queued output reached the
    // kernel). Check close-after-flush and backpressure watermarks here.
    virtual void OnWritable(Conn* conn, void* ud) = 0;
    // Peer closed or the connection errored; the transport already closed
    // the fd and will free its Conn. Release `ud`.
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
  // an unrecoverable epoll failure.
  bool Poll(int timeout_ms);

  // Thread-safe: interrupts a concurrent (or the next) Poll().
  void Wake();

  // Adopts a connected nonblocking fd (load-generator client connections).
  // The transport owns the fd from here on.
  Conn* Adopt(int fd, void* ud);

  // Queues `*data` for sending, swapping it into the transport (it comes
  // back empty, possibly with recycled capacity). The transport flushes as
  // the socket allows; OnWritable fires when everything queued has drained.
  void Send(Conn* conn, std::vector<char>* data);

  // Bytes queued but not yet accepted by the kernel (watermark checks).
  size_t SendQueueBytes(const Conn* conn) const;

  // Re-enables reading after GetReadBuffer returned false. Reads what the
  // socket already holds before returning, so OnData may re-enter the
  // handler from here.
  void ResumeRead(Conn* conn);

  // Closes the connection now (pending unsent output is dropped — callers
  // drain via OnWritable first if they care). Does NOT call OnClose: the
  // caller initiated it and cleans up its own state.
  void Close(Conn* conn);

  const TransportCounters& counters() const { return counters_; }

 private:
  std::vector<char> TakeBuffer(std::vector<char>* data);
  void RecycleBuffer(std::vector<char>&& buf);
  void HandleAccept();
  bool FlushSendQueue(Conn* c);
  void ReadReady(Conn* c);
  void CloseInternal(Conn* c, bool notify);
  void DeliverClosures();

  Handler* handler_ = nullptr;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  // Distinct addresses used as epoll_event tags for non-connection fds.
  char listen_tag_ = 0;
  char wake_tag_ = 0;
  std::vector<Conn*> conns_;
  std::vector<std::pair<Conn*, bool>> dead_;  // (conn, deliver OnClose)
  std::vector<std::vector<char>> free_bufs_;
  TransportCounters counters_;
};

}  // namespace s3fifo

#endif  // SRC_SERVER_TRANSPORT_H_
