#pragma once

// Blocking flowpulsed client: one TCP connection speaking the wire
// protocol, with typed helpers for every request. The load generator, the
// merge client and the socket smoke tests all sit on this; pipelined bulk
// ingest uses send_frames() and then one recv_reply() per frame, so N
// COUNTERS can be in flight per round trip (the redis-benchmark pattern).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "daemon/protocol.h"
#include "daemon/verdict.h"

namespace flowpulse::daemon {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connect (blocking). False with *err filled on failure.
  // fplint: ok(raw-scalar-id): TCP port of the daemon, not a fabric PortId
  [[nodiscard]] bool connect_to(const std::string& host, std::uint16_t tcp_port,
                                std::string* err);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Write one complete frame (blocking until fully written).
  [[nodiscard]] bool send_frame(std::span<const std::uint8_t> frame, std::string* err);
  /// Write many frames with one gathering pass (pipelining).
  [[nodiscard]] bool send_frames(std::span<const std::uint8_t> bytes, std::string* err);
  /// Block until one complete reply payload (opcode + body) arrives.
  [[nodiscard]] bool recv_reply(std::vector<std::uint8_t>& payload, std::string* err);

  // Typed round trips: send, block for the reply, expect OK.
  [[nodiscard]] bool hello(const Hello& h, std::string* err);
  [[nodiscard]] bool predict(const fp::PortLoadMap& map, std::string* err);
  [[nodiscard]] bool counters(const fp::IterationRecord& rec, std::string* err);
  [[nodiscard]] std::optional<FabricVerdict> verdict(std::string* err);
  [[nodiscard]] std::optional<StatsSnapshot> stats(std::string* err);
  [[nodiscard]] bool quit(std::string* err);
  [[nodiscard]] bool shutdown_server(std::string* err);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  [[nodiscard]] bool expect_ok(std::string* err);

  int fd_ = -1;
  FrameAssembler in_;
};

}  // namespace flowpulse::daemon
