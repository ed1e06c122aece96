#pragma once

#include "core/units.h"

namespace flowpulse::net {

/// Per-unidirectional-link statistics. `tx_*` counts packets that finished
/// serialization; `dropped_*` the subset lost to the link's fault; the rest
/// were delivered to the peer. Invariant (tested):
///   tx == dropped + delivered.
/// Byte and packet tallies are distinct strong types (core::Bytes /
/// core::Packets): adding one to the other does not compile.
struct LinkCounters {
  core::Packets tx_packets{};
  core::Bytes tx_bytes{};
  core::Packets dropped_packets{};
  core::Bytes dropped_bytes{};
  /// The subset of drops the switch OS's error counters actually register
  /// (see FaultSpec::visible_to_counters). Silent faults drop packets
  /// without moving this — which is why counter-polling telemetry misses
  /// them (paper §1/§3).
  core::Packets telemetry_dropped_packets{};

  /// Field-wise sum (fabric totals).
  LinkCounters& operator+=(const LinkCounters& other) {
    tx_packets += other.tx_packets;
    tx_bytes += other.tx_bytes;
    dropped_packets += other.dropped_packets;
    dropped_bytes += other.dropped_bytes;
    telemetry_dropped_packets += other.telemetry_dropped_packets;
    return *this;
  }

  [[nodiscard]] core::Packets delivered_packets() const { return tx_packets - dropped_packets; }
  [[nodiscard]] core::Bytes delivered_bytes() const { return tx_bytes - dropped_bytes; }
};

/// Per-switch statistics.
struct SwitchCounters {
  core::Packets forwarded_packets{};
  core::Packets no_route_drops{};  ///< no valid uplink toward destination
};

}  // namespace flowpulse::net
