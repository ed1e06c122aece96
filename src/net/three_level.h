#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/clos_fabric.h"
#include "net/egress_port.h"
#include "net/fault.h"
#include "net/packet_pool.h"
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

  // fplint: ok(raw-scalar-id): pod-local ordinal, not a global id — the
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
  /// lint (fplint mutable-global) and the nm symbol audit now reject:
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

/// The full 3-level fabric: the ClosFabric's hosts and leaves over
/// info().leaf_tier() (kAdaptive LeafSwitches, whose uplink s leads to
/// pod-spine index s of their pod), plus the pod-spines and the cores. Each
/// core is a SpineSwitch over info().core_tier(), so a core's down port p
/// leads to pod p. Only the pod-spine has a class of its own. Fault
/// injection covers both tiers:
///  * leaf↔pod-spine links — the ClosFabric's (leaf, uplink) API;
///    disconnect_known() removes the pod-spine *index* from routing for that
///    leaf (which transitively removes the core group for paths through
///    it), mirroring the 2-level semantics;
///  * pod-spine↔core links — silent faults only (set_core_link_fault),
///    matching the paper's focus on detecting what routing does not know.
class ThreeLevelFatTree : public ClosFabric {
 public:
  ThreeLevelFatTree(sim::Simulator& simulator, ThreeLevelConfig config);

  /// Sharded build (see ClosFabric for the lane rule): pod p — its leaves
  /// AND its pod-spines, so intra-pod hops stay lane-local — is group p,
  /// and core c is group c. Only host<->leaf, pod-spine<->core, and PFC
  /// reverse paths can cross lanes.
  ThreeLevelFatTree(std::vector<sim::Simulator*> lanes, ThreeLevelConfig config);

  [[nodiscard]] const ThreeLevelInfo& info() const { return config_.shape; }
  [[nodiscard]] PodSpineSwitch& pod_spine(std::uint32_t pod, std::uint32_t s) {
    return *pod_spines_[config_.shape.pod_spine_id(pod, s)];
  }
  [[nodiscard]] SpineSwitch& core(std::uint32_t group, std::uint32_t k) {
    return *cores_[config_.shape.core_id(group, k)];
  }

  /// Silent fault on a pod-spine↔core link (both directions).
  // fplint: ok(raw-scalar-id): pod-local ordinals — documented raw-index boundary
  void set_core_link_fault(std::uint32_t pod, std::uint32_t spine_index, std::uint32_t k,
                           FaultSpec fault);

 private:
  ThreeLevelConfig config_;
  /// The core tier's shape; the cores keep a reference to it.
  TopologyInfo core_tier_;
  std::vector<std::unique_ptr<PodSpineSwitch>> pod_spines_;
  std::vector<std::unique_ptr<SpineSwitch>> cores_;
};

}  // namespace flowpulse::net
