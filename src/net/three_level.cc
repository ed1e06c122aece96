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
             info.leaves_per_pod + info.cores_per_group(), PortIndex{info.leaves_per_pod}, pfc},
      pod_{pod},
      index_{index},
      info_{info},
      sent_bytes_(static_cast<std::size_t>(info.num_leaves()) * kNumPriorities *
                      info.cores_per_group(),
                  core::Bytes{}),
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
  core::Bytes* deficit =
      &sent_bytes_[(static_cast<std::size_t>(dst_leaf.v()) * kNumPriorities +
                    priority_index(p.priority)) *
                   info_.cores_per_group()];
  const UplinkIndex k =
      pick_byte_deficit(PortIndex{info_.leaves_per_pod}, spray_candidates_, p, deficit);
  forward(p, in_port, core_uplink(k.v()));
}

// ---------------------------------------------------------------------------
// ThreeLevelFatTree
// ---------------------------------------------------------------------------

ThreeLevelFatTree::ThreeLevelFatTree(sim::Simulator& simulator, ThreeLevelConfig config)
    : ThreeLevelFatTree{std::vector<sim::Simulator*>{&simulator}, config} {}

ThreeLevelFatTree::ThreeLevelFatTree(std::vector<sim::Simulator*> lanes, ThreeLevelConfig config)
    : sim_{*lanes.front()},
      config_{config},
      leaf_tier_{config.shape.leaf_tier()},
      core_tier_{config.shape.core_tier()},
      routing_{leaf_tier_.leaves, leaf_tier_.uplinks_per_leaf()},
      fault_rng_{config.seed ^ 0x3fa017ull},
      lanes_{std::move(lanes)},
      pools_(lanes_.size()) {
  const ThreeLevelInfo& shape = config_.shape;

  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    hosts_.push_back(
        std::make_unique<Host>(sim_, pools_[0], h, config_.host_link, fault_rng_));
  }
  for (const LeafId l : core::ids<LeafId>(shape.num_leaves())) {
    const std::size_t lane = pod_lane(shape.pod_of_leaf(l));
    // kAdaptive never draws from its spray RNG.
    leaves_.push_back(std::make_unique<LeafSwitch>(
        *lanes_[lane], pools_[lane], l, leaf_tier_, routing_, SprayPolicy::kAdaptive,
        config_.pfc, config_.host_link, config_.fabric_link, sim::Rng{config_.seed},
        fault_rng_));
  }
  for (std::uint32_t pod = 0; pod < shape.pods; ++pod) {
    const std::size_t lane = pod_lane(pod);
    for (std::uint32_t s = 0; s < shape.spines_per_pod; ++s) {
      pod_spines_.push_back(std::make_unique<PodSpineSwitch>(
          *lanes_[lane], pools_[lane], pod, s, config_.shape, config_.pfc, config_.fabric_link,
          fault_rng_));
    }
  }
  for (const SpineId c : core::ids<SpineId>(shape.num_cores())) {
    const std::size_t lane = core_lane(c.v());
    cores_.push_back(std::make_unique<SpineSwitch>(*lanes_[lane], pools_[lane], c, core_tier_,
                                                   config_.pfc, config_.fabric_link,
                                                   fault_rng_));
  }

  // Hosts ↔ leaves.
  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    const LeafId l = shape.leaf_of(h);
    const std::uint32_t local = leaf_tier_.local_index(h);
    hosts_[h.v()]->nic().connect(leaves_[l.v()].get(), PortIndex{local});
    leaves_[l.v()]->set_upstream(PortIndex{local}, &hosts_[h.v()]->nic());
    leaves_[l.v()]->host_port(local).connect(hosts_[h.v()].get(), PortIndex{0});
    link_lanes(hosts_[h.v()]->nic(), *lanes_[pod_lane(shape.pod_of_leaf(l))]);
    link_lanes(leaves_[l.v()]->host_port(local), sim_);
  }

  // Leaves ↔ pod-spines (always intra-pod, so never cross-lane).
  for (const LeafId l : core::ids<LeafId>(shape.num_leaves())) {
    const std::uint32_t pod = shape.pod_of_leaf(l);
    const std::uint32_t local = shape.local_leaf(l);
    LeafSwitch& leaf_sw = *leaves_[l.v()];
    for (const UplinkIndex u : core::ids<UplinkIndex>(shape.spines_per_pod)) {
      PodSpineSwitch& ps = *pod_spines_[shape.pod_spine_id(pod, u.v())];
      const PortIndex leaf_port = leaf_tier_.leaf_uplink_port(u);
      leaf_sw.uplink(u).connect(&ps, PortIndex{local});
      ps.set_upstream(PortIndex{local}, &leaf_sw.uplink(u));
      ps.down_port(local).connect(&leaf_sw, leaf_port);
      leaf_sw.set_upstream(leaf_port, &ps.down_port(local));
    }
  }

  // Pod-spines ↔ cores: pod p is the core tier's leaf p.
  for (std::uint32_t pod = 0; pod < shape.pods; ++pod) {
    const PortIndex core_port{pod};
    for (std::uint32_t s = 0; s < shape.spines_per_pod; ++s) {
      PodSpineSwitch& ps = *pod_spines_[shape.pod_spine_id(pod, s)];
      for (std::uint32_t k = 0; k < shape.cores_per_group(); ++k) {
        SpineSwitch& c = *cores_[shape.core_id(s, k)];
        const PortIndex ps_port{shape.leaves_per_pod + k};
        ps.core_uplink(k).connect(&c, core_port);
        c.set_upstream(core_port, &ps.core_uplink(k));
        c.down_port(core_port).connect(&ps, ps_port);
        ps.set_upstream(ps_port, &c.down_port(core_port));
        link_lanes(ps.core_uplink(k), *lanes_[core_lane(shape.core_id(s, k))]);
        link_lanes(c.down_port(core_port), *lanes_[pod_lane(pod)]);
      }
    }
  }
}

std::size_t ThreeLevelFatTree::pod_lane(std::uint32_t pod) const {
  if (lanes_.size() <= 1) return 0;
  return 1 + pod % (lanes_.size() - 1);
}

std::size_t ThreeLevelFatTree::core_lane(std::uint32_t core_id) const {
  if (lanes_.size() <= 1) return 0;
  return 1 + core_id % (lanes_.size() - 1);
}

void ThreeLevelFatTree::link_lanes(EgressPort& port, sim::Simulator& dst) {
  if (&port.owner() == &dst) return;
  port.set_peer_lane(&dst);
  if (port.params().prop_delay < min_cross_lane_latency_) {
    min_cross_lane_latency_ = port.params().prop_delay;
  }
}

void ThreeLevelFatTree::disconnect_known(LeafId leaf, std::uint32_t spine_index) {
  set_leaf_link_fault(leaf, spine_index, FaultSpec::disconnect());
  routing_.set_known_failed(leaf, UplinkIndex{spine_index});
}

void ThreeLevelFatTree::set_leaf_link_fault(LeafId leaf, std::uint32_t spine_index,
                                            FaultSpec fault) {
  const ThreeLevelInfo& shape = config_.shape;
  leaves_[leaf.v()]->uplink(UplinkIndex{spine_index}).set_fault(fault);
  PodSpineSwitch& ps = *pod_spines_[shape.pod_spine_id(shape.pod_of_leaf(leaf), spine_index)];
  ps.down_port(shape.local_leaf(leaf)).set_fault(fault);
}

void ThreeLevelFatTree::set_core_link_fault(std::uint32_t pod, std::uint32_t spine_index,
                                            std::uint32_t k, FaultSpec fault) {
  pod_spines_[config_.shape.pod_spine_id(pod, spine_index)]->core_uplink(k).set_fault(fault);
  set_core_downlink_fault(pod, spine_index, k, fault);
}

void ThreeLevelFatTree::set_core_downlink_fault(std::uint32_t pod, std::uint32_t spine_index,
                                                std::uint32_t k, FaultSpec fault) {
  cores_[config_.shape.core_id(spine_index, k)]->down_port(PortIndex{pod}).set_fault(fault);
}

LinkCounters ThreeLevelFatTree::total_fabric_counters() const {
  LinkCounters total{};
  for (const auto& h : hosts_) total += h->nic().counters();
  for (const auto& leaf : leaves_) total += leaf->link_counters();
  for (const auto& ps : pod_spines_) total += ps->link_counters();
  for (const auto& c : cores_) total += c->link_counters();
  return total;
}

}  // namespace flowpulse::net
