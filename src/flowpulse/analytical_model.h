#pragma once

#include <cstdint>

#include "collective/demand_matrix.h"
#include "core/units.h"
#include "flowpulse/port_load.h"
#include "net/routing.h"
#include "net/topology_info.h"

namespace flowpulse::fp {

/// Analytical per-link load prediction (paper §5.2).
///
/// For each source→destination pair with demand d bytes: in a fault-free
/// network APS spreads it evenly over all s spines; with f *known* failed
/// virtual spines adjacent to either the source or the destination leaf,
/// the remaining (s − f) each carry d / (s − f). Summing the contributions
/// of every pair destined to a leaf yields the expected load on each of
/// that leaf's ingress ports from spines.
///
/// Demands are payload bytes; the prediction is in wire bytes, accounting
/// for MTU segmentation exactly as the transport performs it, so it is
/// directly comparable with switch byte counters.
///
/// This is the only code that turns a demand matrix into wire bytes: the
/// three-level model and the fast-forward synthesis visit the same pairs
/// through for_each_pair()/for_each_share().
class AnalyticalModel {
 public:
  AnalyticalModel(const net::TopologyInfo& info, std::uint32_t mtu_payload,
                  core::Bytes header_bytes)
      : info_{info}, mtu_payload_{mtu_payload}, header_bytes_{header_bytes} {}

  /// Wire bytes for a message of `payload` bytes after segmentation.
  [[nodiscard]] double wire_bytes(core::Bytes payload) const {
    if (payload == core::Bytes{0}) return 0.0;
    const std::uint64_t segments = (payload.v() + mtu_payload_ - 1) / mtu_payload_;
    return static_cast<double>(payload.v() + segments * header_bytes_.v());
  }

  /// Calls visit(src, dst, wire bytes) for every host pair with demand, in
  /// row-major (src, dst) order.
  template <class Visit>
  void for_each_pair(const collective::DemandMatrix& demand, Visit&& visit) const {
    const std::uint32_t hosts = demand.hosts();
    for (const net::HostId src : core::ids<net::HostId>(hosts)) {
      for (const net::HostId dst : core::ids<net::HostId>(hosts)) {
        const core::Bytes d = demand.at(src, dst);
        if (d == core::Bytes{0}) continue;
        visit(src, dst, wire_bytes(d));
      }
    }
  }

  /// Calls visit(src_leaf, dst_leaf, valid uplinks, share) once for every
  /// pair that crosses the spines, where share is the pair's wire bytes
  /// spread evenly over its valid uplinks. Local traffic never reaches the
  /// spines, and a partitioned pair delivers nothing.
  template <class Visit>
  void for_each_share(const collective::DemandMatrix& demand,
                      const net::RoutingState& routing, Visit&& visit) const {
    for_each_pair(demand, [&](net::HostId src, net::HostId dst, double wire) {
      const net::LeafId src_leaf = info_.leaf_of(src);
      const net::LeafId dst_leaf = info_.leaf_of(dst);
      if (src_leaf == dst_leaf) return;
      const auto& valid = routing.valid_uplinks(src_leaf, dst_leaf);
      if (valid.empty()) return;
      visit(src_leaf, dst_leaf, valid, wire / static_cast<double>(valid.size()));
    });
  }

  /// Predict per-port loads for one iteration of the given demand.
  [[nodiscard]] PortLoadMap predict(const collective::DemandMatrix& demand,
                                    const net::RoutingState& routing) const;

 private:
  net::TopologyInfo info_;
  std::uint32_t mtu_payload_;
  core::Bytes header_bytes_;
};

}  // namespace flowpulse::fp
