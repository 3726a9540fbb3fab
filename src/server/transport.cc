#include "src/server/transport.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

namespace s3fifo {

namespace {

// Free space a read needs in `in`; less than this and `in` counts as full.
constexpr size_t kMinReadSpace = 4096;

}  // namespace

Transport::~Transport() {
  for (Conn* c : conns_) {
    close(c->fd);
    delete c;
  }
  for (Conn* c : dead_) {
    delete c;  // destruction never notifies
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
  }
}

bool Transport::Init(Handler* handler, int listen_fd, std::string* error) {
  handler_ = handler;
  listen_fd_ = listen_fd;
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error != nullptr) {
      *error = std::string("epoll/eventfd: ") + strerror(errno);
    }
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_tag_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.ptr = &listen_tag_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  return true;
}

bool Transport::Poll(int timeout_ms) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int n;
  do {
    n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    counters_.syscalls++;
    counters_.waits++;
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return false;
  }
  counters_.events += static_cast<uint64_t>(n);
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = events[i];
    if (ev.data.ptr == &wake_tag_) {
      uint64_t drain = 0;
      [[maybe_unused]] ssize_t r = read(wake_fd_, &drain, sizeof(drain));
      counters_.syscalls++;
      continue;
    }
    if (ev.data.ptr == &listen_tag_) {
      HandleAccept();
      continue;
    }
    auto* c = static_cast<Conn*>(ev.data.ptr);
    if (c->dead) {
      continue;  // closed earlier in this event block
    }
    if ((ev.events & (EPOLLHUP | EPOLLERR)) != 0) {
      CloseInternal(c);
      continue;
    }
    if ((ev.events & EPOLLOUT) != 0) {
      Flush(c);
      if (c->blocked && !c->closing && !OutFull(c)) {
        Serve(c);  // the input OnInput left at the watermark
      }
    }
    if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) {
      c->read_ready = true;
    }
    if ((ev.events & EPOLLRDHUP) != 0) {
      c->rdhup = true;
    }
    if (c->read_ready) {
      ReadReady(c);
    }
  }
  DeliverClosures();
  return true;
}

void Transport::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

Transport::Conn* Transport::Adopt(int fd, void* ud) {
  auto* c = new Conn;
  c->fd = fd;
  c->ud = ud;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.ptr = c;
  counters_.syscalls++;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    close(fd);
    delete c;
    return nullptr;
  }
  conns_.push_back(c);
  return c;
}

void Transport::Flush(Conn* c) {
  while (!c->dead && c->out_off < c->out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as
    // EPIPE (we close the connection), not SIGPIPE the whole process.
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
    counters_.syscalls++;
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
      counters_.bytes_written += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The EPOLLOUT edge resumes. Drop the sent prefix once it outweighs
      // the rest, so appends behind a slow peer stay amortized O(1).
      if (c->out_off >= c->out.size() - c->out_off) {
        c->out.erase(c->out.begin(),
                     c->out.begin() + static_cast<ptrdiff_t>(c->out_off));
        c->out_off = 0;
      }
      return;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseInternal(c);
    return;
  }
  if (!c->dead) {
    c->out.clear();
    c->out_off = 0;
    if (c->closing) {
      CloseInternal(c);
    }
  }
}

void Transport::Close(Conn* c) {
  c->closing = true;
  if (c->out_off == c->out.size()) {
    CloseInternal(c);
  }
}

void Transport::HandleAccept() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    counters_.syscalls++;
    if (fd < 0) {
      return;  // EAGAIN or transient error: nothing more to accept now
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.syscalls++;
    Conn* c = Adopt(fd, nullptr);
    if (c != nullptr) {
      c->ud = handler_->OnAccept(c);
    }
  }
}

// Runs the handler on the buffered input and sends what it rendered. Runs
// it again while it stopped at the watermark and the send made room; if the
// socket stays full, the EPOLLOUT edge resumes it (`blocked`).
void Transport::Serve(Conn* c) {
  for (;;) {
    const size_t rendered = c->out.size();
    handler_->OnInput(c, c->ud);
    c->blocked = OutFull(c) && c->in.size() > 0;
    if (c->out.size() != rendered) {
      Flush(c);  // unchanged output already met EAGAIN or is empty
    }
    if (!c->blocked || c->closing || OutFull(c)) {
      return;
    }
  }
}

// Reads until the socket is empty, serving the handler after every read.
// The socket is empty after a read shorter than the space it offered (a
// stream read takes all that is queued), unless the peer has shut its write
// side: then reading goes on to the EOF, which may follow the data without
// a new edge. While the handler is blocked at the watermark it consumes
// nothing, so reads only fill `in`; once `in` is full (or at EOF), reading
// pauses with read_ready still set, and the Poll after the drain resumes it.
void Transport::ReadReady(Conn* c) {
  while (!c->closing) {
    if (!c->in.EnsureWritable(kMinReadSpace)) {
      if (!c->blocked) {
        // OnInput saw all of `in` with room in `out` and consumed nothing:
        // no frame fits in the buffer. Drop the connection to bound memory.
        CloseInternal(c);
      }
      return;
    }
    const size_t space = c->in.WriteCapacity();
    const ssize_t n = read(c->fd, c->in.WritePtr(), space);
    counters_.syscalls++;
    if (n > 0) {
      c->in.CommitWrite(static_cast<size_t>(n));
      counters_.bytes_read += static_cast<uint64_t>(n);
      Serve(c);
      if (static_cast<size_t>(n) < space && !c->rdhup) {
        c->read_ready = false;  // short read: the socket is empty
        return;
      }
      continue;
    }
    if (n == 0) {
      if (!c->blocked) {
        c->read_ready = false;
        Close(c);  // the peer is done sending; finish the replies first
      }
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      c->read_ready = false;
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseInternal(c);
    return;
  }
}

void Transport::CloseInternal(Conn* c) {
  if (c->dead) {
    return;
  }
  c->dead = true;
  c->closing = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  counters_.syscalls += 2;
  c->fd = -1;
  // The Conn stays allocated until the dispatch batch ends (later events in
  // the same epoll_wait return may still point at it, and a handler that
  // called Close() may still hold it), and OnClose is deferred with it.
  dead_.push_back(c);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == c) {
      conns_[i] = conns_.back();
      conns_.pop_back();
      break;
    }
  }
}

void Transport::DeliverClosures() {
  // OnClose may Close() other conns, growing dead_; index loop, no iterators.
  for (size_t i = 0; i < dead_.size(); ++i) {
    handler_->OnClose(dead_[i], dead_[i]->ud);
  }
  for (Conn* c : dead_) {
    delete c;
  }
  dead_.clear();
}

}  // namespace s3fifo
