#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "core/units.h"
#include "net/host.h"
#include "net/packet.h"
#include "net/types.h"
#include "sim/audit.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::transport {

/// Transport parameters, mirroring the paper's §6 setup: a simple transport
/// tolerant to arbitrary reordering (RoCE with out-of-order writes), NO
/// congestion control (the fabric is lossless via PFC), and loss recovery
/// through a retransmission timeout (default 5 µs).
struct TransportConfig {
  std::uint32_t mtu_payload = 4096;        ///< payload bytes per segment
  /// Minimum retransmission timeout (the paper's 5 µs). The effective RTO
  /// additionally adapts to measured RTT (srtt + 4·rttvar, TCP-style) so
  /// that PFC backpressure — which legitimately inflates RTT in incast
  /// patterns — does not trigger spurious retransmission storms.
  sim::Time rto = sim::Time::microseconds(5);
  /// Adapt the RTO to measured RTT. Disable to reproduce a fixed-RTO NIC
  /// exactly (at the cost of spurious retransmissions under congestion).
  bool adaptive_rto = true;
  std::uint32_t window = 64;               ///< max unacked segments in flight
};

/// Parameters of one message send.
struct MessageSpec {
  net::HostId dst{};
  core::Bytes bytes{};
  net::FlowId flow_id = 0;
  net::Priority priority = net::Priority::kCollective;
};

/// Receiver-side notification of a completely received message.
struct RecvInfo {
  net::HostId src{};
  net::HostId dst{};
  std::uint64_t msg_id = 0;
  net::FlowId flow_id = 0;
  core::Bytes bytes{};
};

struct TransportStats {
  std::uint64_t data_packets_sent = 0;   ///< first transmissions
  std::uint64_t retx_packets_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicate_data_received = 0;
  std::uint64_t messages_sent = 0;       ///< fully acked
  std::uint64_t messages_received = 0;   ///< fully received
};

/// Reliable, reorder-tolerant message transport bound to one host.
///
/// A message of B bytes is segmented into ceil(B / mtu) data packets. The
/// sender keeps at most `window` segments outstanding; each segment's RTO
/// clock starts when the segment actually leaves the NIC (wire time, via
/// the NIC's tx hook), so local queueing does not trigger spurious
/// retransmissions. Receivers accept segments in any order, acknowledge
/// each one individually (selective ACK), and fire the message callback
/// when the last hole fills. Stale RTO firings (segment already acked) are
/// ignored rather than cancelled.
///
/// State lives only while a message is in flight. The sender keeps its
/// messages in a window from the oldest unacknowledged one on; a completed
/// message frees its segment records at once and leaves the window with the
/// completed prefix. The receiver keeps segment records only for partly
/// received messages, and one bit per delivered message id per source,
/// which is what makes delivery exactly-once.
class Transport {
 public:
  /// Until the first RTT sample, be conservative: the RTO floor × this
  /// multiplier (RFC 6298 starts at a full second for the same reason —
  /// before any sample, a timeout firing below the true RTT turns congestion
  /// into a duplicate storm). 100 × 5 µs = 500 µs comfortably covers even
  /// incast queueing at 400 Gbps.
  static constexpr int kInitialRtoMultiplier = 100;

  using SendCompleteFn = std::function<void(std::uint64_t msg_id)>;
  using RecvHandler = std::function<void(const RecvInfo&)>;

  Transport(sim::Simulator& simulator, net::Host& host, TransportConfig config);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Begin sending; returns the message id. `on_complete` (optional) fires
  /// when every segment has been acknowledged.
  std::uint64_t send_message(const MessageSpec& spec, SendCompleteFn on_complete = nullptr);

  /// Register a handler fired whenever a message addressed to this host
  /// completes. Multiple consumers (e.g. parallel jobs) may register; each
  /// filters by its own message bookkeeping.
  void add_recv_handler(RecvHandler handler) { recv_handlers_.push_back(std::move(handler)); }

  /// Handler for raw probe packets (PacketKind::kProbe) arriving at this
  /// host — used by the Pingmesh-style baseline prober. Probes bypass the
  /// reliable-delivery machinery on purpose: losing them is their signal.
  using ProbeHandler = std::function<void(const net::Packet&)>;
  void set_probe_handler(ProbeHandler handler) { probe_handler_ = std::move(handler); }

  [[nodiscard]] const TransportStats& stats() const { return stats_; }
  [[nodiscard]] net::HostId host_id() const { return host_.id(); }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  /// Smoothed RTT estimate (zero until the first sample).
  [[nodiscard]] sim::Time srtt() const { return srtt_; }
  /// Effective retransmission timeout: max(config floor, srtt + 4·rttvar).
  [[nodiscard]] sim::Time effective_rto() const;

#if FP_AUDIT_ENABLED
  /// Test-only: re-fire the completion handlers of an already-delivered
  /// message, simulating a double-delivery bug so the negative-invariant
  /// tests can prove the exactly-once check fires.
  void audit_redeliver(net::HostId src, std::uint64_t msg_id);
#endif

 private:
  struct SegmentState {
    sim::Time wire_time = sim::Time::zero();  ///< last wire departure
    std::uint8_t attempts = 0;                ///< transmissions so far
    bool acked = false;
  };

  struct SendState {
    MessageSpec spec;
    std::uint64_t msg_id = 0;
    std::uint32_t total_segments = 0;
    std::uint32_t next_unsent = 0;
    std::uint32_t acked = 0;
    std::uint32_t outstanding = 0;
    std::vector<SegmentState> segments;  ///< emptied when the message completes
    SendCompleteFn on_complete;
    bool done = false;
  };

  /// A message from one source with some, but not all, segments received.
  struct PartialRecv {
    std::uint64_t msg_id = 0;
    std::uint32_t received = 0;
    std::vector<std::uint8_t> got;  ///< bool per segment
  };

  /// What the receiver keeps about one source host.
  struct SourceState {
    net::HostId src{};
    std::vector<std::uint64_t> delivered;  ///< bit per msg_id: message delivered
    std::vector<PartialRecv> partial;      ///< in any order; looked up by msg_id

    [[nodiscard]] bool was_delivered(std::uint64_t msg_id) const {
      return msg_id / 64 < delivered.size() && ((delivered[msg_id / 64] >> (msg_id % 64)) & 1);
    }
    void mark_delivered(std::uint64_t msg_id) {
      if (msg_id / 64 >= delivered.size()) delivered.resize(msg_id / 64 + 1, 0);
      delivered[msg_id / 64] |= 1ull << (msg_id % 64);
    }
  };

  /// Sender state of `msg_id`, or nullptr once it has completed.
  [[nodiscard]] SendState* in_flight(std::uint64_t msg_id);
  [[nodiscard]] SourceState& source_state(net::HostId src);
  void pump(SendState& st);
  void transmit_segment(SendState& st, std::uint32_t seq);
  void on_wire(const net::Packet& p);
  void on_rto(std::uint64_t msg_id, std::uint32_t seq, std::uint8_t attempt);
  void on_packet(const net::Packet& p);
  void on_data(const net::Packet& p);
  void on_ack(const net::Packet& p);
  void deliver(const net::Packet& p);
  [[nodiscard]] std::uint32_t segment_payload(const SendState& st, std::uint32_t seq) const;

  sim::Simulator& sim_;
  net::Host& host_;
  TransportConfig config_;
  TransportStats stats_;
  sim::Time srtt_ = sim::Time::zero();
  sim::Time rttvar_ = sim::Time::zero();
  // Sender state by message id: ids are sequential from 1, and message
  // `send_base_ + i` sits at sends_[i]. The completed prefix is popped, so
  // the next id is send_base_ + sends_.size().
  std::deque<SendState> sends_;
  std::uint64_t send_base_ = 1;
  std::vector<SourceState> sources_;  // sorted by src
#if FP_AUDIT_ENABLED
  /// Audit builds only: a record of every delivered message, so the
  /// exactly-once check can count deliveries and audit_redeliver replay one.
  struct AuditDelivery {
    std::uint32_t deliveries = 0;  ///< recv-handler firings; must be exactly 1
    net::FlowId flow = 0;
    core::Bytes bytes{};
  };
  std::map<std::pair<net::HostId, std::uint64_t>, AuditDelivery> audit_delivered_;
#endif
  std::vector<RecvHandler> recv_handlers_;
  ProbeHandler probe_handler_;
};

}  // namespace flowpulse::transport
