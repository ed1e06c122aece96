#include "net/three_level.h"

#include <cassert>
#include <string>

namespace flowpulse::net {
namespace {

std::vector<UplinkIndex> iota_candidates(std::uint32_t n) {
  std::vector<UplinkIndex> v;
  v.reserve(n);
  for (const UplinkIndex u : core::ids<UplinkIndex>(n)) v.push_back(u);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// PodSpineSwitch
// ---------------------------------------------------------------------------

PodSpineSwitch::PodSpineSwitch(sim::Simulator& simulator, PacketPool& pool, std::uint32_t pod,
                               std::uint32_t index, const ThreeLevelInfo& info, PfcConfig pfc,
                               LinkParams fabric_link, sim::Rng& fault_rng)
    : Switch{simulator, pool,
             "podspine" + std::to_string(pod) + "_" + std::to_string(index),
             info.leaves_per_pod + info.cores_per_group(), PortIndex{info.leaves_per_pod}, pfc,
             info.num_leaves()},
      pod_{pod},
      index_{index},
      info_{info},
      spray_candidates_{iota_candidates(info.cores_per_group())} {
  for (std::uint32_t l = 0; l < info.leaves_per_pod; ++l) {
    add_port(fabric_link, fault_rng, ".down" + std::to_string(l));
  }
  for (std::uint32_t k = 0; k < info.cores_per_group(); ++k) {
    add_port(fabric_link, fault_rng, ".up" + std::to_string(k));
  }
}

void PodSpineSwitch::receive(Packet p, PortIndex in_port) {
  on_arrival(p, in_port);
  const LeafId dst_leaf = info_.leaf_of(p.dst);
  if (info_.pod_of_leaf(dst_leaf) == pod_) {
    forward(p, in_port, down_port(info_.local_leaf(dst_leaf)));
    return;
  }
  assert(in_port.v() < info_.leaves_per_pod && "core handed a packet to the wrong pod");
  // Cross-pod: spray over this group's cores. Core-level faults are
  // silent by construction, so every core is a routing candidate
  // (spray_candidates_, precomputed per switch).
  const UplinkIndex k = pick_byte_deficit(spray_candidates_, p, dst_leaf);
  forward(p, in_port, core_uplink(k.v()));
}

// ---------------------------------------------------------------------------
// ThreeLevelFatTree
// ---------------------------------------------------------------------------

ThreeLevelFatTree::ThreeLevelFatTree(sim::Simulator& simulator, ThreeLevelConfig config)
    : ThreeLevelFatTree{std::vector<sim::Simulator*>{&simulator}, config} {}

ThreeLevelFatTree::ThreeLevelFatTree(std::vector<sim::Simulator*> lanes, ThreeLevelConfig config)
    : ClosFabric{std::move(lanes), config.shape.leaf_tier(), config.shape.leaves_per_pod,
                 SprayPolicy::kAdaptive, config.pfc, config.host_link, config.fabric_link,
                 config.seed, config.seed ^ 0x3fa017ull},
      config_{config},
      core_tier_{config.shape.core_tier()} {
  const ThreeLevelInfo& shape = config_.shape;
  for (std::uint32_t pod = 0; pod < shape.pods; ++pod) {
    for (std::uint32_t s = 0; s < shape.spines_per_pod; ++s) {
      pod_spines_.push_back(build_switch<PodSpineSwitch>(pod, pod, s, shape, config_.pfc,
                                                         config_.fabric_link));
    }
  }
  for (const SpineId c : core::ids<SpineId>(shape.num_cores())) {
    cores_.push_back(
        build_switch<SpineSwitch>(c.v(), c, core_tier_, config_.pfc, config_.fabric_link));
  }

  // Leaves ↔ pod-spines (always intra-pod, so never cross-lane).
  const TopologyInfo leaf_tier = shape.leaf_tier();
  for (const LeafId l : core::ids<LeafId>(shape.num_leaves())) {
    for (const UplinkIndex u : core::ids<UplinkIndex>(shape.spines_per_pod)) {
      wire(leaf(l), leaf_tier.leaf_uplink_port(u), pod_spine(shape.pod_of_leaf(l), u.v()),
           PortIndex{shape.local_leaf(l)});
    }
  }

  // Pod-spines ↔ cores: pod p is the core tier's leaf p.
  for (std::uint32_t pod = 0; pod < shape.pods; ++pod) {
    for (std::uint32_t s = 0; s < shape.spines_per_pod; ++s) {
      for (std::uint32_t k = 0; k < shape.cores_per_group(); ++k) {
        wire(pod_spine(pod, s), PortIndex{shape.leaves_per_pod + k}, core(s, k),
             PortIndex{pod});
      }
    }
  }
}

void ThreeLevelFatTree::set_core_link_fault(std::uint32_t pod, std::uint32_t spine_index,
                                            std::uint32_t k, FaultSpec fault) {
  PodSpineSwitch& ps = pod_spine(pod, spine_index);
  ps.core_uplink(k).set_fault(fault);
  ps.upstream(UplinkIndex{k}).set_fault(fault);
}

}  // namespace flowpulse::net
