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

/// Shape of a 3-level non-blocking folded Clos (paper §7 "Network
/// Topology"): `pods` pods, each with `leaves_per_pod` leaf switches and
/// `spines_per_pod` pod-spine (aggregation) switches; the core layer is
/// partitioned into `spines_per_pod` groups of `leaves_per_pod` cores —
/// pod-spine s of every pod connects to core group s, giving each
/// cross-pod (src, dst) pair spines_per_pod × leaves_per_pod disjoint
/// paths.
///
/// Hosts are numbered pod-major: host h sits under global leaf
/// h / hosts_per_leaf; global leaf g sits in pod g / leaves_per_pod.
struct ThreeLevelInfo {
  std::uint32_t pods = 4;
  std::uint32_t leaves_per_pod = 4;
  std::uint32_t spines_per_pod = 4;
  std::uint32_t hosts_per_leaf = 1;

  [[nodiscard]] constexpr std::uint32_t cores_per_group() const { return leaves_per_pod; }
  [[nodiscard]] constexpr std::uint32_t num_cores() const {
    return spines_per_pod * cores_per_group();
  }
  [[nodiscard]] constexpr std::uint32_t num_leaves() const { return pods * leaves_per_pod; }
  [[nodiscard]] constexpr std::uint32_t num_pod_spines() const { return pods * spines_per_pod; }
  [[nodiscard]] constexpr std::uint32_t num_hosts() const {
    return num_leaves() * hosts_per_leaf;
  }
  [[nodiscard]] constexpr LeafId leaf_of(HostId h) const {
    return LeafId{h.v() / hosts_per_leaf};
  }
  [[nodiscard]] constexpr std::uint32_t pod_of_leaf(LeafId l) const {
    return l.v() / leaves_per_pod;
  }
  [[nodiscard]] constexpr std::uint32_t local_leaf(LeafId l) const {
    return l.v() % leaves_per_pod;
  }
  /// Global pod-spine id of (pod, spine index).
  [[nodiscard]] constexpr std::uint32_t pod_spine_id(std::uint32_t pod,
                                                     std::uint32_t s) const {
    return pod * spines_per_pod + s;
  }
  /// Global core id of (group = spine index, k within group).
  [[nodiscard]] constexpr std::uint32_t core_id(std::uint32_t group, std::uint32_t k) const {
    return group * cores_per_group() + k;
  }

  /// The leaf tier as a 2-level fat tree: every leaf, with uplink s going
  /// to pod-spine index s of its own pod.
  [[nodiscard]] constexpr TopologyInfo leaf_tier() const {
    return {num_leaves(), spines_per_pod, hosts_per_leaf, 1};
  }
  /// The core tier as a 2-level fat tree whose "leaves" are pods: a core is
  /// its spine, and leaf_of(host) names the host's pod.
  [[nodiscard]] constexpr TopologyInfo core_tier() const {
    return {pods, num_cores(), leaves_per_pod * hosts_per_leaf, 1};
  }
};

/// Pod-spine (aggregation) switch: port l leads down to local leaf l, and
/// port leaves_per_pod + k up to core k of its group, which the ingress tap
/// reports as k (FlowPulse at the spine level, §7). Cross-pod traffic is
/// sprayed over the cores (per-packet, byte-deficit); same-pod traffic
/// turns around here.
class PodSpineSwitch final : public Switch {
 public:
  PodSpineSwitch(sim::Simulator& simulator, PacketPool& pool, std::uint32_t pod,
                 std::uint32_t index, const ThreeLevelInfo& info, PfcConfig pfc,
                 LinkParams fabric_link, sim::Rng& fault_rng);

  void receive(Packet p, PortIndex in_port) override;

  // detlint: ok(raw-scalar-id): pod-local ordinal, not a global id — the
  // documented raw-index face of the three-level API
  [[nodiscard]] EgressPort& down_port(std::uint32_t local_leaf) {
    return port(PortIndex{local_leaf});
  }
  [[nodiscard]] EgressPort& core_uplink(std::uint32_t k) {
    return port(PortIndex{info_.leaves_per_pod + k});
  }

  [[nodiscard]] std::uint32_t pod() const { return pod_; }
  [[nodiscard]] std::uint32_t index() const { return index_; }

 private:
  std::uint32_t pod_;
  std::uint32_t index_;
  const ThreeLevelInfo& info_;
  std::vector<core::Bytes> sent_bytes_;  // [dst_leaf * prios + prio][core k]
  /// Spray candidates for cross-pod traffic: every core of this group, in
  /// index order, precomputed once. Per-switch (so per-lane) state — this
  /// replaced a function-local `static thread_local` that the mutable-state
  /// lint (detlint mutable-global) and the nm symbol audit now reject:
  /// hidden static scratch is exactly the cross-lane sharing the sharded
  /// event core must not inherit.
  std::vector<UplinkIndex> spray_candidates_;
};

struct ThreeLevelConfig {
  ThreeLevelInfo shape{};
  LinkParams host_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  LinkParams fabric_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  PfcConfig pfc{};
  std::uint64_t seed = 0x5eed;
};

/// The full 3-level fabric, built from the 2-level switch classes: each
/// leaf is a kAdaptive LeafSwitch over info().leaf_tier(), and each core is
/// a SpineSwitch over info().core_tier(), so a core's down port p leads to
/// pod p. Only the pod-spine has a class of its own. Fault injection covers
/// both tiers:
///  * leaf↔pod-spine links — disconnect_known() removes the pod-spine
///    *index* from routing for that leaf (which transitively removes the
///    core group for paths through it), mirroring the 2-level semantics;
///  * pod-spine↔core links — silent faults only (set_core_link_fault),
///    matching the paper's focus on detecting what routing does not know.
class ThreeLevelFatTree {
 public:
  ThreeLevelFatTree(sim::Simulator& simulator, ThreeLevelConfig config);

  /// Sharded build: `lanes[0]` drives the hosts; pod p — its leaves AND its
  /// pod-spines, so intra-pod hops stay lane-local — goes to lane
  /// 1 + (p mod (lanes-1)), and core c to lane 1 + (c mod (lanes-1)). Only
  /// host<->leaf, pod-spine<->core, and PFC reverse paths can cross lanes.
  /// Each lane's devices queue into that lane's own PacketPool.
  ThreeLevelFatTree(std::vector<sim::Simulator*> lanes, ThreeLevelConfig config);

  ThreeLevelFatTree(const ThreeLevelFatTree&) = delete;
  ThreeLevelFatTree& operator=(const ThreeLevelFatTree&) = delete;

  /// Smallest propagation delay over all cross-lane links (conservative
  /// lookahead); Time::max() in a single-lane build.
  [[nodiscard]] sim::Time min_cross_lane_latency() const { return min_cross_lane_latency_; }

  [[nodiscard]] const ThreeLevelInfo& info() const { return config_.shape; }
  [[nodiscard]] Host& host(HostId h) { return *hosts_[h.v()]; }
  [[nodiscard]] LeafSwitch& leaf(LeafId l) { return *leaves_[l.v()]; }
  [[nodiscard]] PodSpineSwitch& pod_spine(std::uint32_t pod, std::uint32_t s) {
    return *pod_spines_[config_.shape.pod_spine_id(pod, s)];
  }
  [[nodiscard]] SpineSwitch& core(std::uint32_t group, std::uint32_t k) {
    return *cores_[config_.shape.core_id(group, k)];
  }
  [[nodiscard]] std::uint32_t num_hosts() const { return config_.shape.num_hosts(); }
  [[nodiscard]] RoutingState& routing() { return routing_; }
  [[nodiscard]] const RoutingState& routing() const { return routing_; }

  /// Known pre-existing failure of a leaf↔pod-spine link (both directions
  /// dark + removed from routing).
  void disconnect_known(LeafId leaf, std::uint32_t spine_index);  // detlint: ok(raw-scalar-id): pod-local ordinal — documented raw-index boundary
  /// Silent fault on a leaf↔pod-spine link.
  void set_leaf_link_fault(LeafId leaf, std::uint32_t spine_index, FaultSpec fault);  // detlint: ok(raw-scalar-id): pod-local ordinal — documented raw-index boundary
  /// Silent fault on a pod-spine↔core link (both directions).
  // detlint: ok(raw-scalar-id): pod-local ordinals — documented raw-index boundary
  void set_core_link_fault(std::uint32_t pod, std::uint32_t spine_index, std::uint32_t k,
                           FaultSpec fault);
  /// Silent fault on only the core→pod-spine direction.
  // detlint: ok(raw-scalar-id): pod-local ordinals — documented raw-index boundary
  void set_core_downlink_fault(std::uint32_t pod, std::uint32_t spine_index, std::uint32_t k,
                               FaultSpec fault);

  [[nodiscard]] LinkCounters total_fabric_counters() const;

 private:
  /// Index into lanes_ and pools_ of the lane that drives pod `pod` / core
  /// `core_id`.
  [[nodiscard]] std::size_t pod_lane(std::uint32_t pod) const;
  [[nodiscard]] std::size_t core_lane(std::uint32_t core_id) const;
  void link_lanes(EgressPort& port, sim::Simulator& dst);

  sim::Simulator& sim_;
  ThreeLevelConfig config_;
  // Tier-local shapes the leaf and core switches keep references to.
  TopologyInfo leaf_tier_;
  TopologyInfo core_tier_;
  RoutingState routing_;  // (global leaf, pod-spine index)
  sim::Rng fault_rng_;
  std::vector<sim::Simulator*> lanes_;
  /// pools_[i] holds the packets of the devices lanes_[i] drives. Sized
  /// once at construction: devices keep references into it.
  std::vector<PacketPool> pools_;
  sim::Time min_cross_lane_latency_ = sim::Time::max();
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<LeafSwitch>> leaves_;
  std::vector<std::unique_ptr<PodSpineSwitch>> pod_spines_;
  std::vector<std::unique_ptr<SpineSwitch>> cores_;
};

}  // namespace flowpulse::net
