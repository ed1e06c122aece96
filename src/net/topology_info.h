#pragma once

#include <cstdint>

#include "net/types.h"

namespace flowpulse::net {

/// Shape of a 2-level non-blocking fat tree. Hosts are numbered so that
/// hosts [l * hosts_per_leaf, (l+1) * hosts_per_leaf) sit under leaf l.
///
/// `parallel` models parallel leaf↔spine links (paper §7 "Parallel Links"):
/// each physical spine is split into `parallel` virtual spines; an uplink
/// index u identifies (spine u / parallel, lane u % parallel). Packets keep
/// their lane across the spine (virtual-switch semantics), so each lane
/// behaves as an independent spine for spraying, monitoring and prediction.
///
/// These methods are the ONLY sanctioned conversions between the strong
/// index spaces (host → leaf, uplink → spine/lane, uplink → port); ad-hoc
/// arithmetic on raw .v() values elsewhere is what the strong types exist
/// to eliminate.
struct TopologyInfo {
  std::uint32_t leaves = 32;
  std::uint32_t spines = 16;
  std::uint32_t hosts_per_leaf = 1;
  std::uint32_t parallel = 1;

  friend constexpr bool operator==(const TopologyInfo&, const TopologyInfo&) = default;

  [[nodiscard]] constexpr std::uint32_t uplinks_per_leaf() const { return spines * parallel; }
  [[nodiscard]] constexpr std::uint32_t num_hosts() const { return leaves * hosts_per_leaf; }
  [[nodiscard]] constexpr LeafId leaf_of(HostId h) const {
    return LeafId{h.v() / hosts_per_leaf};
  }
  [[nodiscard]] constexpr std::uint32_t local_index(HostId h) const {
    return h.v() % hosts_per_leaf;
  }
  [[nodiscard]] constexpr SpineId spine_of(UplinkIndex u) const {
    return SpineId{u.v() / parallel};
  }
  [[nodiscard]] constexpr std::uint32_t lane_of(UplinkIndex u) const { return u.v() % parallel; }
  /// Port index of uplink `u` on its spine switch, for a given leaf.
  [[nodiscard]] constexpr PortIndex spine_port(LeafId leaf, UplinkIndex u) const {
    return PortIndex{leaf.v() * parallel + lane_of(u)};
  }
  /// Leaf-switch port carrying uplink `u`.
  [[nodiscard]] constexpr PortIndex leaf_uplink_port(UplinkIndex u) const {
    return PortIndex{hosts_per_leaf + u.v()};
  }
};

}  // namespace flowpulse::net
