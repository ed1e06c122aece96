#pragma once

// The flowpulsed transport: a single-threaded, level-triggered epoll event
// loop over non-blocking TCP sockets (the redis single-threaded design).
// All protocol semantics live in DaemonEngine; this class only accepts
// connections, assembles frames, and shuttles reply bytes — which is why
// it is small and why the interesting logic is testable without it.
//
// src/daemon is the repo's one sanctioned realtime module (see
// tools/fplint): fds, epoll and OS I/O are legitimate here and only
// here — the simulation core stays deterministic.

#include <cstdint>
#include <map>
#include <string>

#include "core/thread_safety.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"

namespace flowpulse::daemon {

/// The event-loop thread role. Everything the epoll loop mutates —
/// connection table, per-connection sessions/buffers, the engine, the stop
/// flag — is single-owner state of whichever thread is inside run() (or,
/// before/after the loop, of the thread that owns the Server object; the
/// handoff points are open()→run() and run()-returned→~Server(), both
/// happens-before via thread creation/join). Guarding that state with this
/// role makes "a second thread reached into the loop" a compile error
/// under -Werror=thread-safety instead of a tsan coin flip. The one
/// deliberately role-free entry point is request_stop(): it only writes
/// the eventfd, which is what makes it safe from signal handlers and
/// other threads.
inline constexpr core::ThreadRole kServerLoop{};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// TCP listen port; 0 binds an ephemeral port (read it back via port()).
  // fplint: ok(raw-scalar-id): TCP listen port, not a fabric PortId/UplinkIndex
  std::uint16_t port = 7117;
  /// If non-empty, the actual bound port is written here after listen() —
  /// how scripts using --port=0 discover the daemon.
  std::string port_file;
  int max_connections = 1024;
};

class Server {
 public:
  Server(ServerConfig config, DaemonEngine& engine);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// socket/bind/listen/epoll setup. False (with a message on stderr) on
  /// any syscall failure.
  [[nodiscard]] bool open();

  /// Run the event loop until a SHUTDOWN frame or request_stop(). Returns
  /// 0 on clean shutdown, 1 if open() was never called / failed.
  [[nodiscard]] int run();

  /// Async-signal-safe stop request (writes one byte to an internal
  /// eventfd the loop polls) — the SIGINT/SIGTERM path.
  void request_stop();

  /// The actually-bound TCP port (after open()).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

 private:
  struct Conn {
    Session session;
    FrameAssembler in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool closing = false;  ///< close once `out` drains
  };

  void accept_ready() FP_REQUIRES(kServerLoop);
  /// False if the connection died and was closed.
  bool conn_readable(int fd) FP_REQUIRES(kServerLoop);
  bool flush_out(int fd, Conn& conn) FP_REQUIRES(kServerLoop);
  void close_conn(int fd) FP_REQUIRES(kServerLoop);
  void update_interest(int fd, const Conn& conn) FP_REQUIRES(kServerLoop);

  ServerConfig config_;
  /// Mutated on every frame (stats, detection state) — loop-owned like the
  /// connection table, even though the reference itself is const.
  DaemonEngine& engine_;
  // The fds and bound port are written once in open() (before any loop
  // thread exists) and only read afterwards, so they stay role-free;
  // request_stop() relies on reading wake_fd_ from arbitrary threads.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: request_stop() → loop wakeup
  // fplint: ok(raw-scalar-id): TCP listen port, not a fabric PortId/UplinkIndex
  std::uint16_t bound_port_ = 0;
  bool stop_requested_ FP_GUARDED_BY(kServerLoop) = false;
  std::map<int, Conn> conns_ FP_GUARDED_BY(kServerLoop);
};

}  // namespace flowpulse::daemon
