#pragma once

#include <cstdint>

#include "core/units.h"
#include "net/types.h"

namespace flowpulse::net {

enum class PacketKind : std::uint8_t {
  kData,   ///< transport data segment
  kAck,    ///< transport selective acknowledgement
  kProbe,  ///< baseline prober traffic (Pingmesh-style)
};

/// Per-packet wire header overhead we account for (Eth + IP + UDP + BTH-ish).
inline constexpr core::Bytes kHeaderBytes{64};
/// Size of a pure control packet (ACK / probe) on the wire.
inline constexpr core::Bytes kControlPacketBytes{64};

/// A simulated packet. Payload contents are never modeled — only sizes and
/// identifiers — since every consumer (switch counters, FlowPulse monitors,
/// the transport) operates on volumes and sequence numbers. Collective
/// numerical correctness is validated at the message layer instead.
struct Packet {
  FlowId flow_id = 0;
  HostId src{};
  HostId dst{};
  std::uint64_t msg_id = 0;  ///< unique per (src, message)
  core::Bytes msg_bytes{};       ///< total payload bytes of the message
  std::uint32_t total_segments = 0;  ///< segments the message was split into
  std::uint32_t seq = 0;     ///< segment index within the message
  /// For ACKs: SACK bitmap — bit i set means segment (seq - 1 - i) was also
  /// received. Coalesced acknowledgement state (as RoCE NICs maintain)
  /// makes the transport robust to ACK loss: a lost ACK is covered by the
  /// bitmaps of the following ones instead of forcing a spurious data
  /// retransmission.
  std::uint64_t ack_bitmap = 0;
  core::Bytes size_bytes{};  ///< wire size including kHeaderBytes
  /// Scratch rewritten at each switch hop: ingress port the packet entered
  /// on, used for PFC ingress accounting on departure.
  PortIndex pfc_ingress = kInvalidPort;
  PacketKind kind = PacketKind::kData;
  Priority priority = Priority::kCollective;
  std::uint8_t retx = 0;  ///< retransmission attempt count
};

}  // namespace flowpulse::net
