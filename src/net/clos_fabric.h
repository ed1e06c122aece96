#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/counters.h"
#include "net/egress_port.h"
#include "net/fault.h"
#include "net/host.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/switch.h"
#include "net/topology_info.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace flowpulse::net {

/// What every Clos fabric builds alike: the hosts, the leaves over the leaf
/// tier's TopologyInfo, the RoutingState over that tier, the host<->leaf
/// links, one PacketPool per event lane, and the fault RNG. FatTree adds
/// the spines above the leaves; ThreeLevelFatTree adds pod-spines and cores.
///
/// Lanes: `lanes[0]` drives the hosts, and a switch of group g goes to lane
/// 1 + (g mod (lanes-1)) — the one lane rule of every fabric. A leaf's group
/// is its pod (a 2-level leaf is a pod of one). Each lane's devices queue
/// into that lane's own PacketPool, and every link whose two ends run on
/// different lanes is wired through the lane mailbox
/// (EgressPort::set_peer_lane). A one-element vector is the serial build.
///
/// A leaf link is named (LeafId, UplinkIndex) at every depth. Its far end is
/// never recomputed from the shape: wiring records at each switch the
/// egress port feeding each ingress port, and the fault API reaches the
/// downlink as the leaf's `upstream(u)`.
///  * disconnect_known(): a *known* pre-existing failure — both directions
///    go dark AND routing stops using the uplink (paper: links with
///    pre-existing faults are disconnected).
///  * set_uplink_fault()/set_downlink_fault(): silent faults — the data
///    plane drops packets but routing keeps spraying onto the link.
class ClosFabric {
 public:
  ClosFabric(const ClosFabric&) = delete;
  ClosFabric& operator=(const ClosFabric&) = delete;

  /// Smallest propagation delay over all cross-lane links — the
  /// conservative lookahead a LaneRunner may use. Time::max() when no link
  /// crosses lanes (single-lane build).
  [[nodiscard]] sim::Time min_cross_lane_latency() const { return min_cross_lane_latency_; }

  [[nodiscard]] Host& host(HostId h) { return *hosts_[h.v()]; }
  [[nodiscard]] LeafSwitch& leaf(LeafId l) { return *leaves_[l.v()]; }
  [[nodiscard]] std::uint32_t num_hosts() const { return leaf_tier_.num_hosts(); }

  /// (leaf, uplink) routing over the leaf tier.
  [[nodiscard]] RoutingState& routing() { return routing_; }
  [[nodiscard]] const RoutingState& routing() const { return routing_; }

  /// Silent fault on the leaf→upper-switch direction of uplink u at `leaf`.
  void set_uplink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Silent fault on the upper-switch→leaf direction of uplink u at `leaf`.
  void set_downlink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Silent fault on both directions.
  void set_link_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Known pre-existing failure: disconnect both directions and remove the
  /// (leaf, uplink) from routing.
  void disconnect_known(LeafId leaf, UplinkIndex u);

  /// Counters of the upper-switch→leaf direction of uplink u at `leaf` —
  /// the links FlowPulse watches.
  [[nodiscard]] const LinkCounters& downlink_counters(LeafId leaf, UplinkIndex u) const;
  /// Counters of the leaf→upper-switch direction.
  [[nodiscard]] const LinkCounters& uplink_counters(LeafId leaf, UplinkIndex u) const;

  /// Sum of every link counter over the whole fabric (conservation tests).
  [[nodiscard]] LinkCounters total_fabric_counters() const;

 protected:
  /// Builds the hosts, then the leaves over `leaf_tier` (leaf l in pod
  /// l / leaves_per_pod), and wires each host to its leaf. The leaves take
  /// splits of `seed` in leaf order as their spray RNG; `fault_seed` seeds
  /// the fault RNG every port samples.
  ClosFabric(std::vector<sim::Simulator*> lanes, TopologyInfo leaf_tier,
             std::uint32_t leaves_per_pod, SprayPolicy spray, PfcConfig pfc,
             LinkParams host_link, LinkParams fabric_link, std::uint64_t seed,
             std::uint64_t fault_seed);

  /// Build a switch of group `group` on its lane: S's constructor takes that
  /// lane's simulator and pool, then `args`, then the fault RNG. Its links
  /// count in total_fabric_counters().
  template <typename S, typename... Args>
  [[nodiscard]] std::unique_ptr<S> build_switch(std::uint32_t group, Args&&... args) {
    const std::size_t lane = lanes_.size() <= 1 ? 0 : 1 + group % (lanes_.size() - 1);
    auto sw =
        std::make_unique<S>(*lanes_[lane], pools_[lane], std::forward<Args>(args)..., fault_rng_);
    switches_.push_back(sw.get());
    return sw;
  }

  /// Wire the link pair between port `a_port` of `a` and port `b_port` of
  /// `b`: `a`'s egress `a_port` feeds `b`'s ingress `b_port` and the
  /// reverse, each switch records the egress port feeding it as that
  /// ingress port's upstream, and each direction whose ends run on
  /// different lanes is marked cross-lane.
  void wire(Switch& a, PortIndex a_port, Switch& b, PortIndex b_port);

 private:
  /// Mark `port` cross-lane if its transmit lane differs from `dst`, and
  /// fold its propagation delay into the lookahead bound.
  void link_lanes(EgressPort& port, sim::Simulator& dst);

  std::vector<sim::Simulator*> lanes_;
  /// pools_[i] holds the packets of the devices lanes_[i] drives. Sized
  /// once at construction: devices keep references into it.
  std::vector<PacketPool> pools_;
  sim::Rng fault_rng_;
  /// The leaf tier's shape; the leaves keep a reference to it.
  TopologyInfo leaf_tier_;
  RoutingState routing_;
  sim::Time min_cross_lane_latency_ = sim::Time::max();
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  /// Every switch build_switch() made, leaves first.
  std::vector<const Switch*> switches_;
};

}  // namespace flowpulse::net
