#include "src/server/transport.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <deque>

namespace s3fifo {

struct Transport::Conn {
  int fd = -1;
  void* ud = nullptr;
  // Owned outgoing buffers; front() is partially sent up to front_off.
  std::deque<std::vector<char>> sendq;
  size_t front_off = 0;
  size_t queued_bytes = 0;
  bool read_paused = false;  // handler returned false from GetReadBuffer
  bool read_ready = false;   // an unconsumed EPOLLIN edge while paused
  bool dead = false;         // close deferred to the end of the dispatch
};

Transport::~Transport() {
  for (Conn* c : conns_) {
    if (c->fd >= 0) {
      close(c->fd);
    }
    delete c;
  }
  for (auto& [c, notify] : dead_) {
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
      CloseInternal(c, /*notify=*/true);
      continue;
    }
    if ((ev.events & EPOLLOUT) != 0) {
      if (!FlushSendQueue(c)) {
        continue;
      }
      if (c->queued_bytes == 0) {
        handler_->OnWritable(c, c->ud);
        if (c->dead) {
          continue;
        }
      }
    }
    if ((ev.events & (EPOLLIN | EPOLLRDHUP)) != 0) {
      c->read_ready = true;
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

void Transport::Send(Conn* c, std::vector<char>* data) {
  if (data->empty() || c->dead) {
    return;
  }
  c->queued_bytes += data->size();
  c->sendq.push_back(TakeBuffer(data));
  // Try immediately: with edge-triggered EPOLLOUT, the writable edge for a
  // never-full socket never fires — flush eagerly, fall back to the edge
  // only on EAGAIN.
  FlushSendQueue(c);
}

size_t Transport::SendQueueBytes(const Conn* c) const {
  return c->queued_bytes;
}

void Transport::ResumeRead(Conn* c) {
  if (!c->read_paused || c->dead) {
    return;
  }
  c->read_paused = false;
  if (c->read_ready) {
    // The edge already fired while paused; re-enter the read loop now, no
    // new EPOLLIN will announce the buffered data.
    ReadReady(c);
  }
}

void Transport::Close(Conn* c) { CloseInternal(c, /*notify=*/false); }

std::vector<char> Transport::TakeBuffer(std::vector<char>* data) {
  std::vector<char> owned;
  if (!free_bufs_.empty()) {
    owned = std::move(free_bufs_.back());
    free_bufs_.pop_back();
  }
  owned.swap(*data);
  data->clear();
  return owned;
}

void Transport::RecycleBuffer(std::vector<char>&& buf) {
  if (free_bufs_.size() < 16) {
    buf.clear();
    free_bufs_.push_back(std::move(buf));
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

// Sends until EAGAIN or the queue drains. False if the connection died
// (closed, with OnClose deferred to the end of the dispatch).
bool Transport::FlushSendQueue(Conn* c) {
  while (!c->sendq.empty()) {
    std::vector<char>& front = c->sendq.front();
    // MSG_NOSIGNAL: a client that vanished mid-response must surface as
    // EPIPE (we close the connection), not SIGPIPE the whole process.
    const ssize_t n = send(c->fd, front.data() + c->front_off,
                           front.size() - c->front_off, MSG_NOSIGNAL);
    counters_.syscalls++;
    if (n > 0) {
      c->front_off += static_cast<size_t>(n);
      c->queued_bytes -= static_cast<size_t>(n);
      if (c->front_off == front.size()) {
        RecycleBuffer(std::move(front));
        c->sendq.pop_front();
        c->front_off = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // the EPOLLOUT edge will resume
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseInternal(c, /*notify=*/true);
    return false;
  }
  return true;
}

// Reads until EAGAIN, pushing bytes through the handler as they land (the
// handler parses and may Send/Close re-entrantly).
void Transport::ReadReady(Conn* c) {
  while (!c->dead) {
    char* buf = nullptr;
    size_t cap = 0;
    if (!handler_->GetReadBuffer(c, c->ud, &buf, &cap)) {
      c->read_paused = true;  // read_ready stays set for ResumeRead
      return;
    }
    const ssize_t n = read(c->fd, buf, cap);
    counters_.syscalls++;
    if (n > 0) {
      handler_->OnData(c, c->ud, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      CloseInternal(c, /*notify=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      c->read_ready = false;
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseInternal(c, /*notify=*/true);
    return;
  }
}

void Transport::CloseInternal(Conn* c, bool notify) {
  if (c->dead) {
    return;
  }
  c->dead = true;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
  close(c->fd);
  counters_.syscalls += 2;
  c->fd = -1;
  // The Conn stays allocated until the dispatch batch ends (later events in
  // the same epoll_wait return may still point at it), and OnClose is
  // deferred with it: a death detected inside a handler-initiated Send()
  // must not re-enter the handler while it still holds the connection.
  dead_.push_back({c, notify});
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
    if (dead_[i].second) {
      handler_->OnClose(dead_[i].first, dead_[i].first->ud);
    }
  }
  for (auto& [c, notify] : dead_) {
    delete c;
  }
  dead_.clear();
}

}  // namespace s3fifo
