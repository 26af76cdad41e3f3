#include "serve/net/front_end.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>
#include <vector>

#include "serve/net/wire.hpp"

namespace cdd::serve::net {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void CloseIfOpen(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

FrontEnd::FrontEnd(FrontEndConfig config, SolverService& service)
    : config_(std::move(config)),
      service_(service),
      accepted_(&service.metrics().counter("net_accepted")),
      rejected_max_conns_(
          &service.metrics().counter("net_rejected_max_conns")),
      frames_in_(&service.metrics().counter("net_frames_in")),
      frames_out_(&service.metrics().counter("net_frames_out")),
      protocol_errors_(&service.metrics().counter("net_protocol_errors")) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    CloseIfOpen(listen_fd_);
    throw std::system_error(
        std::make_error_code(std::errc::invalid_argument),
        "front-end host is not an IPv4 address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    CloseIfOpen(listen_fd_);
    errno = saved;
    ThrowErrno("bind/listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    const int saved = errno;
    CloseIfOpen(listen_fd_);
    errno = saved;
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const int saved = errno;
    CloseIfOpen(listen_fd_);
    CloseIfOpen(epoll_fd_);
    CloseIfOpen(wake_fd_);
    errno = saved;
    ThrowErrno("epoll_create1/eventfd");
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

  anchor_ = std::make_shared<Anchor>();
  anchor_->owner = this;
  thread_ = std::thread([this] { Loop(); });
}

FrontEnd::~FrontEnd() { Stop(); }

std::size_t FrontEnd::connections() const {
  const std::scoped_lock lock(conns_mutex_);
  return conns_.size();
}

void FrontEnd::Stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  {
    // From here on, completion callbacks find no owner and drop their
    // responses; the futures inside the service resolve regardless.
    const std::scoped_lock lock(anchor_->mutex);
    anchor_->owner = nullptr;
  }
  Wake();
  if (thread_.joinable()) thread_.join();
  {
    const std::scoped_lock lock(conns_mutex_);
    for (auto& [fd, conn] : conns_) ::close(fd);
    conns_.clear();
  }
  CloseIfOpen(listen_fd_);
  CloseIfOpen(epoll_fd_);
  CloseIfOpen(wake_fd_);
}

void FrontEnd::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto written =
      ::write(wake_fd_, &one, sizeof(one));
}

void FrontEnd::Loop() {
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    const int ready =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), /*timeout=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready && !stopping_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const auto got =
            ::read(wake_fd_, &drained, sizeof(drained));
        // A wake means some outbox gained bytes; flush everything that
        // has any (connection counts are small, a sweep is cheap).
        std::vector<std::shared_ptr<Conn>> snapshot;
        {
          const std::scoped_lock lock(conns_mutex_);
          snapshot.reserve(conns_.size());
          for (auto& [cfd, conn] : conns_) snapshot.push_back(conn);
        }
        for (const auto& conn : snapshot) FlushConn(conn);
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        const std::scoped_lock lock(conns_mutex_);
        const auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier in this batch
        conn = it->second;
      }
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(fd);
        continue;
      }
      if (events[i].events & EPOLLIN) ReadReady(conn);
      if (events[i].events & EPOLLOUT) FlushConn(conn);
    }
  }
}

void FrontEnd::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try later
    bool over_cap = false;
    {
      const std::scoped_lock lock(conns_mutex_);
      over_cap = conns_.size() >= config_.max_conns;
    }
    if (over_cap) {
      rejected_max_conns_->Increment();
      ::close(fd);
      continue;
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_shared<Conn>(config_.max_frame_bytes);
    conn->fd = fd;
    {
      const std::scoped_lock lock(conns_mutex_);
      conns_.emplace(fd, conn);
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    accepted_->Increment();
  }
}

void FrontEnd::ReadReady(const std::shared_ptr<Conn>& conn) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t got = ::read(conn->fd, buffer, sizeof(buffer));
    if (got == 0) {
      CloseConn(conn->fd);  // orderly peer close
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn->fd);
      return;
    }
    conn->decoder.Append(buffer, static_cast<std::size_t>(got));
    try {
      while (auto payload = conn->decoder.Next()) {
        HandleFrame(conn, *payload);
      }
    } catch (const FrameError& e) {
      // Broken framing cannot be resynchronized: answer once, then close
      // after the outbox drains.
      protocol_errors_->Increment();
      QueueReply(conn, EncodeFrame(WriteErrorResponse(0, e.what())));
      {
        const std::scoped_lock lock(conn->mutex);
        conn->broken = true;
      }
      return;
    }
  }
}

void FrontEnd::HandleFrame(const std::shared_ptr<Conn>& conn,
                           const std::string& payload) {
  frames_in_->Increment();
  SolveRequest request;
  try {
    request = ParseRequest(payload);
  } catch (const WireError& e) {
    // A per-frame defect: the stream is still framed correctly, so the
    // connection survives — only this request is answered with an error.
    protocol_errors_->Increment();
    QueueReply(conn, EncodeFrame(WriteErrorResponse(0, e.what())));
    return;
  }
  const std::shared_ptr<Anchor> anchor = anchor_;
  const std::weak_ptr<Conn> weak = conn;
  service_.Submit(
      std::move(request),
      [anchor, weak](const SolveResponse& response) {
        const std::scoped_lock lock(anchor->mutex);
        if (anchor->owner == nullptr) return;  // front-end stopped
        if (const std::shared_ptr<Conn> live = weak.lock()) {
          anchor->owner->QueueReply(
              live, EncodeFrame(WriteResponse(response)));
        }
      });
}

void FrontEnd::QueueReply(const std::shared_ptr<Conn>& conn,
                          std::string frame) {
  {
    const std::scoped_lock lock(conn->mutex);
    conn->outbox += frame;
  }
  frames_out_->Increment();
  Wake();
}

void FrontEnd::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    const std::scoped_lock lock(conn->mutex);
    std::string& outbox = conn->outbox;
    while (conn->sent < outbox.size()) {
      const ssize_t wrote = ::write(conn->fd, outbox.data() + conn->sent,
                                    outbox.size() - conn->sent);
      if (wrote > 0) {
        conn->sent += static_cast<std::size_t>(wrote);
        continue;
      }
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (conn->sent > outbox.size() / 2) {
          outbox.erase(0, conn->sent);
          conn->sent = 0;
        }
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
        return;
      }
      if (wrote < 0 && errno == EINTR) continue;
      close_now = true;  // peer went away mid-write
      break;
    }
    if (!close_now) {
      outbox.clear();
      conn->sent = 0;
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
      close_now = conn->broken;  // error frame delivered; now hang up
    }
  }
  if (close_now) CloseConn(conn->fd);
}

void FrontEnd::CloseConn(int fd) {
  std::shared_ptr<Conn> conn;
  {
    const std::scoped_lock lock(conns_mutex_);
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn->fd = -1;
}

}  // namespace cdd::serve::net
