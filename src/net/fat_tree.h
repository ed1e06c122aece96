#pragma once

#include <cstdint>
#include <memory>
#include <vector>

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

/// Configuration of a 2-level non-blocking fat tree (paper §6 default:
/// 32 leaves × 16 spines, one host per leaf).
struct FatTreeConfig {
  TopologyInfo shape{};
  LinkParams host_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  LinkParams fabric_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  SprayPolicy spray = SprayPolicy::kAdaptive;
  PfcConfig pfc{};
  std::uint64_t seed = 0x5eed;  ///< seeds spray tie-breaks and fault sampling
};

/// Builds and owns the whole fabric: hosts, leaf and spine switches, and
/// the links between them, plus the shared RoutingState. Provides the fault
/// injection API used by experiments:
///  * disconnect_known(): a *known* pre-existing failure — both directions
///    go dark AND routing stops using the virtual spine (paper: links with
///    pre-existing faults are disconnected).
///  * set_uplink_fault()/set_downlink_fault(): silent faults — the data
///    plane drops packets but routing keeps spraying onto the link.
class FatTree {
 public:
  FatTree(sim::Simulator& simulator, FatTreeConfig config);

  /// Sharded build: `lanes[0]` drives the hosts (and everything the
  /// experiment layer schedules on `simulator()`); leaf l goes to lane
  /// 1 + (l mod (lanes-1)) and spine s to lane 1 + (s mod (lanes-1)), so
  /// every leaf<->spine and host<->leaf hop that lands on a different lane
  /// is wired through the lane mailbox (EgressPort::set_peer_lane). Each
  /// lane's devices queue into that lane's own PacketPool. A one-element
  /// vector degenerates to the serial build above.
  FatTree(std::vector<sim::Simulator*> lanes, FatTreeConfig config);

  FatTree(const FatTree&) = delete;
  FatTree& operator=(const FatTree&) = delete;

  [[nodiscard]] const TopologyInfo& info() const { return config_.shape; }
  [[nodiscard]] const FatTreeConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Smallest propagation delay over all cross-lane links — the
  /// conservative lookahead a LaneRunner may use. Time::max() when no link
  /// crosses lanes (single-lane build).
  [[nodiscard]] sim::Time min_cross_lane_latency() const { return min_cross_lane_latency_; }

  [[nodiscard]] Host& host(HostId h) { return *hosts_[h.v()]; }
  [[nodiscard]] LeafSwitch& leaf(LeafId l) { return *leaves_[l.v()]; }
  [[nodiscard]] SpineSwitch& spine(SpineId s) { return *spines_[s.v()]; }
  [[nodiscard]] std::uint32_t num_hosts() const { return config_.shape.num_hosts(); }

  [[nodiscard]] RoutingState& routing() { return routing_; }
  [[nodiscard]] const RoutingState& routing() const { return routing_; }

  /// Silent fault on the leaf→spine direction of uplink u at `leaf`.
  void set_uplink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Silent fault on the spine→leaf direction of uplink u at `leaf`.
  void set_downlink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Silent fault on both directions.
  void set_link_fault(LeafId leaf, UplinkIndex u, FaultSpec fault);
  /// Known pre-existing failure: disconnect both directions and remove the
  /// (leaf, uplink) from routing.
  void disconnect_known(LeafId leaf, UplinkIndex u);

  /// Counters of the spine→leaf direction of uplink u at `leaf` — the links
  /// FlowPulse watches.
  [[nodiscard]] const LinkCounters& downlink_counters(LeafId leaf, UplinkIndex u) const;
  /// Counters of the leaf→spine direction.
  [[nodiscard]] const LinkCounters& uplink_counters(LeafId leaf, UplinkIndex u) const;

  /// Sum of every link counter over the whole fabric (conservation tests).
  [[nodiscard]] LinkCounters total_fabric_counters() const;

 private:
  [[nodiscard]] EgressPort& downlink(LeafId leaf, UplinkIndex u);
  /// Index into lanes_ and pools_ of the lane that drives leaf l / spine s.
  [[nodiscard]] std::size_t leaf_lane(LeafId l) const;
  [[nodiscard]] std::size_t spine_lane(SpineId s) const;
  /// Mark `port` cross-lane if its transmit lane differs from `dst`, and
  /// fold its propagation delay into the lookahead bound.
  void link_lanes(EgressPort& port, sim::Simulator& dst);

  sim::Simulator& sim_;
  FatTreeConfig config_;
  RoutingState routing_;
  sim::Rng fault_rng_;
  std::vector<sim::Simulator*> lanes_;
  /// pools_[i] holds the packets of the devices lanes_[i] drives. Sized
  /// once at construction: devices keep references into it.
  std::vector<PacketPool> pools_;
  sim::Time min_cross_lane_latency_ = sim::Time::max();
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  std::vector<std::unique_ptr<SpineSwitch>> spines_;
};

}  // namespace flowpulse::net
