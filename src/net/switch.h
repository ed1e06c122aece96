#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/units.h"
#include "net/counters.h"
#include "net/device.h"
#include "net/egress_port.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/topology_info.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace flowpulse::net {

/// Priority Flow Control parameters, applied per (ingress port, priority).
struct PfcConfig {
  core::Bytes xoff_bytes{128 * 1024};  ///< pause upstream above this
  core::Bytes xon_bytes{96 * 1024};    ///< resume upstream below this
};

#if FP_AUDIT_ENABLED
/// Audit watchdog: a PAUSE asserted continuously toward the same upstream
/// for longer than this is treated as a PFC deadlock. Legitimate pauses
/// resolve in microseconds (draining one xoff worth of bytes at fabric
/// rate); 50 ms of continuous back-pressure means the buffer never drained.
constexpr sim::Time kPfcStuckPauseTimeout = sim::Time::milliseconds(50);
#endif

/// Common switch machinery: the egress ports, ingress-buffer accounting,
/// PFC pause/resume toward upstream egress ports, and one ingress tap.
/// Ingress port p and egress port p face the same neighbour, so one
/// PortIndex names both. A packet occupies its ingress-port counter from
/// arrival until it starts serialization on this switch's egress port
/// (hardware decrements on departure from the shared buffer).
class Switch : public Device {
 public:
  /// Observer of packets arriving on up-facing ports, each reported by its
  /// port's index counted from the first up-facing port. This is the
  /// vantage point FlowPulse instruments: a leaf's ingress from spines (§5:
  /// late in the path, and it names the traversed spine) and a pod-spine's
  /// ingress from cores (§7).
  using IngressTap = std::function<void(UplinkIndex, const Packet&)>;

  void set_upstream(PortIndex in_port, EgressPort* upstream);
  void set_ingress_tap(IngressTap tap) { tap_ = std::move(tap); }

  /// Egress port p; ingress port p faces the same neighbour.
  [[nodiscard]] EgressPort& port(PortIndex p) { return *ports_[p.v()]; }
  [[nodiscard]] const EgressPort& port(PortIndex p) const { return *ports_[p.v()]; }

  /// The egress port feeding the up-facing port the tap reports as `u`:
  /// the far end of that link, recorded when it was wired.
  [[nodiscard]] EgressPort& upstream(UplinkIndex u);
  [[nodiscard]] const EgressPort& upstream(UplinkIndex u) const;
  /// Sum of the counters of every link this switch drives.
  [[nodiscard]] LinkCounters link_counters() const;

  /// Release accounting for a departing packet (identified by its
  /// pfc_ingress scratch field) and issue RESUME if below XON. Owned egress
  /// ports call it when a packet starts serialization.
  void pfc_on_depart(const Packet& p);

  [[nodiscard]] const SwitchCounters& counters() const { return counters_; }
  [[nodiscard]] core::Bytes ingress_bytes(PortIndex port, Priority prio) const {
    return ingress_bytes_[port.v()][priority_index(prio)];
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

 protected:
  /// Ports [first_up_port, num_ports) face up; kInvalidPort when none do.
  /// `pool` is the packet pool of `simulator`'s lane, which every port of
  /// this switch queues into.
  Switch(sim::Simulator& simulator, PacketPool& pool, std::string name,
         std::uint32_t num_ports, PortIndex first_up_port, PfcConfig pfc);

  /// Create the next egress port, named after this switch plus `suffix`.
  /// Subclasses call it once per port, in port order.
  void add_port(LinkParams link, sim::Rng& fault_rng, const std::string& suffix);

  /// Arrival prologue of every receive(): account the packet, issue PAUSE
  /// if its ingress class crosses XOFF, then report it to the tap.
  void on_arrival(const Packet& p, PortIndex in_port);

  /// Forwarding tail of every receive(): count the packet, remember its
  /// ingress port for the PFC release on departure, and enqueue it.
  void forward(Packet& p, PortIndex in_port, EgressPort& out) {
    ++counters_.forwarded_packets;
    p.pfc_ingress = in_port;
    out.enqueue(p);
  }

  /// Congestion-graded byte-deficit spray, shared by the kAdaptive leaf and
  /// the three-level pod-spine. Candidate u is egress port first + u. Picks
  /// the candidate with the least congestion grade, i.e. bytes queued at or
  /// above the packet's class in 8 KiB units (kSprayQuantum); then the least
  /// bytes in `deficit[u]`; then the earliest candidate. Charges the
  /// packet's bytes to the pick's deficit entry.
  [[nodiscard]] UplinkIndex pick_byte_deficit(PortIndex first,
                                              const std::vector<UplinkIndex>& candidates,
                                              const Packet& p, core::Bytes* deficit) const;

  sim::Simulator& sim_;
  SwitchCounters counters_{};

 private:
  void send_pause(PortIndex in_port, Priority prio, bool pause);

  PacketPool& pool_;
  std::string name_;
  PfcConfig pfc_;
  PortIndex first_up_port_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::vector<std::array<core::Bytes, kNumPriorities>> ingress_bytes_;
  std::vector<std::array<bool, kNumPriorities>> upstream_paused_;
  std::vector<EgressPort*> upstream_;
  IngressTap tap_;

#if FP_AUDIT_ENABLED
  void audit_verify_ingress_drained() const;
  /// Bumped on every pause *and* resume; a watchdog event compares its
  /// captured epoch so only a pause held continuously past the timeout
  /// trips it.
  std::vector<std::array<std::uint64_t, kNumPriorities>> audit_pause_epoch_;
#endif
};

/// Leaf (top-of-rack) switch. Ports [0, hosts_per_leaf) face hosts; port
/// hosts_per_leaf + u carries uplink u, which the ingress tap reports as u.
/// Upstream traffic is sprayed per packet across the valid uplinks (APS);
/// downstream traffic is delivered to the destination host port — never
/// sprayed, matching the paper's network model.
class LeafSwitch final : public Switch {
 public:
  LeafSwitch(sim::Simulator& simulator, PacketPool& pool, LeafId id, const TopologyInfo& info,
             const RoutingState& routing, SprayPolicy spray, PfcConfig pfc,
             LinkParams host_link, LinkParams fabric_link, sim::Rng rng, sim::Rng& fault_rng);

  void receive(Packet p, PortIndex in_port) override;

  [[nodiscard]] EgressPort& host_port(std::uint32_t local_index) {
    return port(PortIndex{local_index});
  }
  [[nodiscard]] EgressPort& uplink(UplinkIndex u) { return port(info_.leaf_uplink_port(u)); }
  [[nodiscard]] const EgressPort& uplink(UplinkIndex u) const {
    return port(info_.leaf_uplink_port(u));
  }

  [[nodiscard]] LeafId id() const { return id_; }

 private:
  static constexpr UplinkIndex kNoUplink{0xffffffffu};
  [[nodiscard]] UplinkIndex choose_uplink(const Packet& p, LeafId dst_leaf);

  LeafId id_;
  const TopologyInfo& info_;
  const RoutingState& routing_;
  SprayPolicy spray_;
  sim::Rng rng_;

  /// kFlowlet: fixed-size flowlet table (collisions overwrite, as in real
  /// hardware tables) and the idle gap after which a flow may re-route.
  struct FlowletEntry {
    std::uint64_t key = 0;
    UplinkIndex uplink{};
    sim::Time last = sim::Time::zero();
  };
  static constexpr std::size_t kFlowletTableSize = 4096;
  static constexpr sim::Time kFlowletGap = sim::Time::microseconds(10);
  std::vector<FlowletEntry> flowlet_table_;
  /// Byte-deficit tie-break state (kAdaptive), kept per (destination leaf,
  /// traffic class, uplink): among equally-uncongested lanes the switch
  /// picks the one that has carried the fewest bytes for this destination
  /// and class (byte-based round-robin, as WCMP/DLB-style hardware does).
  /// Per-destination state is essential: shared state would let an
  /// interleaved destination mix alias onto fixed lanes, and the ACK stream
  /// would phase-lock the data stream. Byte (rather than packet) deficits
  /// matter too: each message ends in a short tail segment, and a
  /// packet-count round-robin parks those tails on the same lanes whenever
  /// segments-per-message and lane count share a factor, leaving a
  /// deterministic byte imbalance the load model cannot predict.
  std::vector<core::Bytes> sent_bytes_;  // [(dst_leaf * kNumPriorities + prio) * uplinks + u]
};

/// Spine switch. Port leaf * parallel + lane connects to that leaf's uplink
/// lane. Downstream forwarding is deterministic: a packet leaves on the
/// same lane it arrived on (virtual-switch semantics for parallel links).
class SpineSwitch final : public Switch {
 public:
  SpineSwitch(sim::Simulator& simulator, PacketPool& pool, SpineId id, const TopologyInfo& info,
              PfcConfig pfc, LinkParams fabric_link, sim::Rng& fault_rng);

  void receive(Packet p, PortIndex in_port) override;

  [[nodiscard]] EgressPort& down_port(PortIndex p) { return port(p); }
  [[nodiscard]] const EgressPort& down_port(PortIndex p) const { return port(p); }
  [[nodiscard]] EgressPort& down_port_to(LeafId leaf, std::uint32_t lane) {
    return port(PortIndex{leaf.v() * info_.parallel + lane});
  }

  [[nodiscard]] SpineId id() const { return id_; }

 private:
  SpineId id_;
  const TopologyInfo& info_;
};

}  // namespace flowpulse::net
