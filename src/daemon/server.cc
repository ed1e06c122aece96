#include "daemon/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace flowpulse::daemon {

namespace {

// Pending connections the kernel queues before accept().
constexpr int kListenBacklog = 128;

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void log_errno(const char* what) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): only the kServerLoop thread
  // logs; the role capability (server.h) proves there is exactly one
  std::fprintf(stderr, "flowpulsed: %s: %s\n", what, std::strerror(errno));
}

}  // namespace

Server::Server(ServerConfig config, DaemonEngine& engine)
    : config_{std::move(config)}, engine_{engine} {}

Server::~Server() {
  // Destruction is a role handoff: run() has returned and its thread has
  // been joined (flowpulsed_main and every test do the join before the
  // Server leaves scope), so the destroying thread is the sole owner.
  const core::ScopedThreadRole role{kServerLoop};
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Server::open() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    log_errno("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "flowpulsed: bad bind address '%s'\n", config_.bind_address.c_str());
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    log_errno("bind");
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    log_errno("getsockname");
    return false;
  }
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0 || !set_nonblocking(listen_fd_)) {
    log_errno("listen");
    return false;
  }

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  epoll_fd_ = ::epoll_create1(0);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    log_errno("epoll_create1/eventfd");
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    log_errno("epoll_ctl(listen)");
    return false;
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    log_errno("epoll_ctl(wake)");
    return false;
  }

  if (!config_.port_file.empty()) {
    std::ofstream pf{config_.port_file};
    pf << bound_port_ << "\n";
  }
  return true;
}

void Server::request_stop() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // Async-signal-safe; the loop treats any wake as a stop request.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void Server::update_interest(int fd, const Conn& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn.out_off < conn.out.size() ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) log_errno("accept");
      return;
    }
    if (static_cast<int>(conns_.size()) >= config_.max_connections || !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, Conn{});
    ++engine_.stats().connections_accepted;
    ++engine_.stats().connections_open;
  }
}

void Server::close_conn(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);
  --engine_.stats().connections_open;
}

bool Server::flush_out(int fd, Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(fd, conn.out.data() + conn.out_off, conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      engine_.stats().bytes_out += core::Bytes{static_cast<std::uint64_t>(n)};
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    close_conn(fd);
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.closing) {
    close_conn(fd);
    return false;
  }
  return true;
}

bool Server::conn_readable(int fd) {
  Conn& conn = conns_.at(fd);
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      engine_.stats().bytes_in += core::Bytes{static_cast<std::uint64_t>(n)};
      conn.in.feed({buf, static_cast<std::size_t>(n)});
      if (n < static_cast<ssize_t>(sizeof(buf))) break;  // likely drained
      continue;
    }
    if (n == 0) {  // peer closed
      close_conn(fd);
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_conn(fd);
    return false;
  }

  std::vector<std::uint8_t> frame;
  for (;;) {
    const FrameAssembler::Status st = conn.in.next(frame);
    if (st == FrameAssembler::Status::kNeedMore) break;
    EngineReply reply;
    if (st == FrameAssembler::Status::kFrame) {
      reply = engine_.on_frame(conn.session, frame);
    } else {
      reply = engine_.on_bad_stream(st == FrameAssembler::Status::kOversized
                                        ? Err::kOversized
                                        : Err::kBadFrame);
    }
    conn.out.insert(conn.out.end(), reply.bytes.begin(), reply.bytes.end());
    if (reply.shutdown) stop_requested_ = true;
    if (reply.close || reply.shutdown) {
      conn.closing = true;
      break;  // no frames are processed past a close
    }
  }
  if (!flush_out(fd, conn)) return false;
  update_interest(fd, conn);
  return true;
}

int Server::run() {
  // The calling thread becomes THE event-loop thread for the lifetime of
  // this frame; every FP_REQUIRES(kServerLoop) method below is reachable
  // only from here.
  const core::ScopedThreadRole role{kServerLoop};
  if (epoll_fd_ < 0) return 1;
  epoll_event events[128];
  while (!stop_requested_) {
    const int n = ::epoll_wait(epoll_fd_, events, 128, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_errno("epoll_wait");
      return 1;
    }
    bool accept_pending = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        stop_requested_ = true;
        continue;
      }
      if (fd == listen_fd_) {
        // Deferred below: accepting mid-batch can reuse an fd number that
        // close_conn released earlier in this same batch, and a stale queued
        // event for the old fd would then act on the unrelated new
        // connection. No fd enters conns_ until the batch is fully handled.
        accept_pending = true;
        continue;
      }
      if (conns_.find(fd) == conns_.end()) continue;  // closed earlier this round
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(fd);
        continue;
      }
      if ((ev & EPOLLIN) != 0 && !conn_readable(fd)) continue;
      if ((ev & EPOLLOUT) != 0) {
        auto it = conns_.find(fd);
        if (it != conns_.end() && flush_out(fd, it->second)) update_interest(fd, it->second);
      }
    }
    if (accept_pending) accept_ready();
  }
  // Graceful exit: stop accepting, then give pending replies (the OK for
  // the SHUTDOWN itself) a bounded number of flush attempts.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  for (int attempt = 0; attempt < 64 && !conns_.empty(); ++attempt) {
    for (auto it = conns_.begin(); it != conns_.end();) {
      const int fd = it->first;
      Conn& conn = it->second;
      ++it;  // flush_out may erase
      if (conn.out_off >= conn.out.size()) {
        close_conn(fd);
      } else {
        flush_out(fd, conn);
      }
    }
  }
  return 0;
}

}  // namespace flowpulse::daemon
