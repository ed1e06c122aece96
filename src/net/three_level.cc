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

PodSpineSwitch::PodSpineSwitch(sim::Simulator& simulator, std::uint32_t pod,
                               std::uint32_t index, const ThreeLevelInfo& info, PfcConfig pfc,
                               LinkParams fabric_link, core::Bytes spray_quantum)
    : Switch{simulator,
             "podspine" + std::to_string(pod) + "_" + std::to_string(index),
             info.leaves_per_pod + info.cores_per_group(), pfc},
      pod_{pod},
      index_{index},
      info_{info},
      spray_quantum_{spray_quantum.v() == 0 ? core::Bytes{1} : spray_quantum},
      sent_bytes_(static_cast<std::size_t>(info.num_leaves()) * kNumPriorities *
                      info.cores_per_group(),
                  core::Bytes{}),
      spray_candidates_{iota_candidates(info.cores_per_group())} {
  for (std::uint32_t l = 0; l < info.leaves_per_pod; ++l) {
    down_ports_.push_back(std::make_unique<EgressPort>(
        simulator, fabric_link, name() + ".down" + std::to_string(l)));
    hook_depart(*down_ports_.back());
  }
  for (std::uint32_t k = 0; k < info.cores_per_group(); ++k) {
    up_ports_.push_back(std::make_unique<EgressPort>(
        simulator, fabric_link, name() + ".up" + std::to_string(k)));
    hook_depart(*up_ports_.back());
  }
}

void PodSpineSwitch::set_fault_rng(sim::Rng* rng) {
  for (auto& p : down_ports_) p->set_fault_rng(rng);
  for (auto& p : up_ports_) p->set_fault_rng(rng);
}

void PodSpineSwitch::receive(Packet p, PortIndex in_port) {
  pfc_on_arrival(p, in_port);
  const bool from_core = in_port.v() >= info_.leaves_per_pod;
  if (hook_ && from_core) hook_(in_port.v() - info_.leaves_per_pod, p);

  const LeafId dst_leaf = info_.leaf_of(p.dst);
  const std::uint32_t dst_pod = info_.pod_of_leaf(dst_leaf);
  EgressPort* out = nullptr;
  if (dst_pod == pod_) {
    out = down_ports_[info_.local_leaf(dst_leaf)].get();
  } else {
    assert(!from_core && "core handed a packet to the wrong pod");
    // Cross-pod: spray over this group's cores. Core-level faults are
    // silent by construction, so every core is a routing candidate
    // (spray_candidates_, precomputed per switch).
    core::Bytes* deficit =
        &sent_bytes_[(static_cast<std::size_t>(dst_leaf.v()) * kNumPriorities +
                      priority_index(p.priority)) *
                     info_.cores_per_group()];
    out = up_ports_[pick_byte_deficit(up_ports_, spray_candidates_, p, spray_quantum_, deficit)
                        .v()]
              .get();
  }
  ++counters_.forwarded_packets;
  p.pfc_ingress = in_port;
  out->enqueue(p);
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
      lanes_{std::move(lanes)} {
  const ThreeLevelInfo& shape = config_.shape;

  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    hosts_.push_back(std::make_unique<Host>(sim_, h, config_.host_link));
  }
  for (const LeafId l : core::ids<LeafId>(shape.num_leaves())) {
    // kAdaptive never draws from its spray RNG.
    leaves_.push_back(std::make_unique<LeafSwitch>(
        lane_for_pod(shape.pod_of_leaf(l)), l, leaf_tier_, routing_, SprayPolicy::kAdaptive,
        config_.pfc, config_.host_link, config_.fabric_link, sim::Rng{config_.seed},
        config_.spray_quantum_bytes));
  }
  for (std::uint32_t pod = 0; pod < shape.pods; ++pod) {
    for (std::uint32_t s = 0; s < shape.spines_per_pod; ++s) {
      pod_spines_.push_back(std::make_unique<PodSpineSwitch>(
          lane_for_pod(pod), pod, s, config_.shape, config_.pfc, config_.fabric_link,
          config_.spray_quantum_bytes));
    }
  }
  for (const SpineId c : core::ids<SpineId>(shape.num_cores())) {
    cores_.push_back(std::make_unique<SpineSwitch>(lane_for_core(c.v()), c, core_tier_,
                                                   config_.pfc, config_.fabric_link));
  }

  // Hosts ↔ leaves.
  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    const LeafId l = shape.leaf_of(h);
    const std::uint32_t local = leaf_tier_.local_index(h);
    hosts_[h.v()]->nic().connect(leaves_[l.v()].get(), PortIndex{local});
    leaves_[l.v()]->set_upstream(PortIndex{local}, &hosts_[h.v()]->nic());
    leaves_[l.v()]->host_port(local).connect(hosts_[h.v()].get(), PortIndex{0});
    hosts_[h.v()]->nic().set_fault_rng(&fault_rng_);
    link_lanes(hosts_[h.v()]->nic(), lane_for_pod(shape.pod_of_leaf(l)));
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
    leaf_sw.set_fault_rng(&fault_rng_);
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
        link_lanes(ps.core_uplink(k), lane_for_core(shape.core_id(s, k)));
        link_lanes(c.down_port(core_port), lane_for_pod(pod));
      }
      ps.set_fault_rng(&fault_rng_);
    }
  }
  for (auto& c : cores_) c->set_fault_rng(&fault_rng_);
}

sim::Simulator& ThreeLevelFatTree::lane_for_pod(std::uint32_t pod) const {
  if (lanes_.size() <= 1) return sim_;
  const auto groups = static_cast<std::uint32_t>(lanes_.size() - 1);
  return *lanes_[1 + pod % groups];
}

sim::Simulator& ThreeLevelFatTree::lane_for_core(std::uint32_t core_id) const {
  if (lanes_.size() <= 1) return sim_;
  const auto groups = static_cast<std::uint32_t>(lanes_.size() - 1);
  return *lanes_[1 + core_id % groups];
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
  const ThreeLevelInfo& shape = config_.shape;
  for (const auto& h : hosts_) total += h->nic().counters();
  for (const auto& leaf : leaves_) {
    for (std::uint32_t i = 0; i < shape.hosts_per_leaf; ++i) {
      total += leaf->host_port(i).counters();
    }
    for (const UplinkIndex u : core::ids<UplinkIndex>(shape.spines_per_pod)) {
      total += leaf->uplink(u).counters();
    }
  }
  for (const auto& ps : pod_spines_) {
    for (std::uint32_t l = 0; l < shape.leaves_per_pod; ++l) total += ps->down_port(l).counters();
    for (std::uint32_t k = 0; k < shape.cores_per_group(); ++k) {
      total += ps->core_uplink(k).counters();
    }
  }
  for (const auto& c : cores_) {
    for (const PortIndex pod : core::ids<PortIndex>(shape.pods)) {
      total += c->down_port(pod).counters();
    }
  }
  return total;
}

}  // namespace flowpulse::net
