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

/// Common switch machinery: ingress-buffer accounting and PFC pause/resume
/// toward upstream egress ports. A packet occupies its ingress-port counter
/// from arrival until it starts serialization on this switch's egress port
/// (hardware decrements on departure from the shared buffer).
class Switch : public Device {
 public:
  void set_upstream(PortIndex in_port, EgressPort* upstream);
  [[nodiscard]] const SwitchCounters& counters() const { return counters_; }
  [[nodiscard]] core::Bytes ingress_bytes(PortIndex port, Priority prio) const {
    return ingress_bytes_[port.v()][priority_index(prio)];
  }
  [[nodiscard]] const std::string& name() const { return name_; }

 protected:
  Switch(sim::Simulator& simulator, std::string name, std::uint32_t num_ports, PfcConfig pfc);

  /// Account an arriving packet and issue PAUSE if the ingress class
  /// crosses XOFF.
  void pfc_on_arrival(const Packet& p, PortIndex in_port);

  /// Release accounting for a departing packet (identified by its
  /// pfc_ingress scratch field) and issue RESUME if below XON.
  void pfc_on_depart(const Packet& p);

  /// Install pfc_on_depart as the depart hook of an owned egress port.
  void hook_depart(EgressPort& port);

  sim::Simulator& sim_;
  SwitchCounters counters_{};

 private:
  void send_pause(PortIndex in_port, Priority prio, bool pause);

  std::string name_;
  PfcConfig pfc_;
  std::vector<std::array<core::Bytes, kNumPriorities>> ingress_bytes_;
  std::vector<std::array<bool, kNumPriorities>> upstream_paused_;
  std::vector<EgressPort*> upstream_;

#if FP_AUDIT_ENABLED
  void audit_verify_ingress_drained() const;
  /// Bumped on every pause *and* resume; a watchdog event compares its
  /// captured epoch so only a pause held continuously past the timeout
  /// trips it.
  std::vector<std::array<std::uint64_t, kNumPriorities>> audit_pause_epoch_;
#endif
};

/// Congestion-graded byte-deficit spray, shared by the kAdaptive leaf and
/// the three-level pod-spine. Picks among `candidates` (indices into
/// `ports`) the least congestion grade, i.e. bytes queued at or above the
/// packet's class in 8 KiB units (kSprayQuantum); then the least bytes in
/// `deficit[u]`; then the earliest candidate. Charges the packet's bytes to
/// the pick's deficit entry.
[[nodiscard]] UplinkIndex pick_byte_deficit(
    const std::vector<std::unique_ptr<EgressPort>>& ports,
    const std::vector<UplinkIndex>& candidates, const Packet& p, core::Bytes* deficit);

/// Leaf (top-of-rack) switch. Ports [0, hosts_per_leaf) face hosts; port
/// hosts_per_leaf + u carries uplink u. Upstream traffic is sprayed per
/// packet across the valid uplinks (APS); downstream traffic is delivered
/// to the destination host port — never sprayed, matching the paper's
/// network model.
class LeafSwitch final : public Switch {
 public:
  /// Observer for packets arriving from spines — exactly the vantage point
  /// FlowPulse instruments (§5: leaf ingress ports from spines are late in
  /// the path and uniquely identify the traversed spine).
  using SpineIngressHook = std::function<void(UplinkIndex, const Packet&)>;

  LeafSwitch(sim::Simulator& simulator, LeafId id, const TopologyInfo& info,
             const RoutingState& routing, SprayPolicy spray, PfcConfig pfc,
             LinkParams host_link, LinkParams fabric_link, sim::Rng rng);

  void receive(Packet p, PortIndex in_port) override;

  [[nodiscard]] EgressPort& host_port(std::uint32_t local_index) {
    return *host_ports_[local_index];
  }
  [[nodiscard]] EgressPort& uplink(UplinkIndex u) { return *uplink_ports_[u.v()]; }
  [[nodiscard]] const EgressPort& uplink(UplinkIndex u) const { return *uplink_ports_[u.v()]; }

  void set_spine_ingress_hook(SpineIngressHook hook) { spine_hook_ = std::move(hook); }
  void set_fault_rng(sim::Rng* rng);

  [[nodiscard]] LeafId id() const { return id_; }
  [[nodiscard]] SprayPolicy spray_policy() const { return spray_; }

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
  sim::Time flowlet_gap_ = sim::Time::microseconds(10);
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
  std::vector<std::unique_ptr<EgressPort>> host_ports_;
  std::vector<std::unique_ptr<EgressPort>> uplink_ports_;
  SpineIngressHook spine_hook_;
};

/// Spine switch. Port leaf * parallel + lane connects to that leaf's uplink
/// lane. Downstream forwarding is deterministic: a packet leaves on the
/// same lane it arrived on (virtual-switch semantics for parallel links).
class SpineSwitch final : public Switch {
 public:
  SpineSwitch(sim::Simulator& simulator, SpineId id, const TopologyInfo& info, PfcConfig pfc,
              LinkParams fabric_link);

  void receive(Packet p, PortIndex in_port) override;

  [[nodiscard]] EgressPort& down_port(PortIndex port) { return *down_ports_[port.v()]; }
  [[nodiscard]] const EgressPort& down_port(PortIndex port) const {
    return *down_ports_[port.v()];
  }
  [[nodiscard]] EgressPort& down_port_to(LeafId leaf, std::uint32_t lane) {
    return *down_ports_[leaf.v() * info_.parallel + lane];
  }
  void set_fault_rng(sim::Rng* rng);

  [[nodiscard]] SpineId id() const { return id_; }

 private:
  SpineId id_;
  const TopologyInfo& info_;
  std::vector<std::unique_ptr<EgressPort>> down_ports_;
};

}  // namespace flowpulse::net
