#include "net/fat_tree.h"

#include <cassert>

namespace flowpulse::net {

FatTree::FatTree(sim::Simulator& simulator, FatTreeConfig config)
    : FatTree{std::vector<sim::Simulator*>{&simulator}, config} {}

FatTree::FatTree(std::vector<sim::Simulator*> lanes, FatTreeConfig config)
    : sim_{*lanes.front()},
      config_{config},
      routing_{config.shape.leaves, config.shape.uplinks_per_leaf()},
      fault_rng_{config.seed ^ 0xfa017ull},
      lanes_{std::move(lanes)},
      pools_(lanes_.size()) {
  const TopologyInfo& shape = config_.shape;
  // The spray seeder consumes splits in leaf construction order regardless
  // of lane layout, so per-leaf spray streams are identical in every build.
  sim::Rng spray_seeder{config_.seed};

  hosts_.reserve(shape.num_hosts());
  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    hosts_.push_back(
        std::make_unique<Host>(sim_, pools_[0], h, config_.host_link, fault_rng_));
  }
  leaves_.reserve(shape.leaves);
  for (const LeafId l : core::ids<LeafId>(shape.leaves)) {
    const std::size_t lane = leaf_lane(l);
    leaves_.push_back(std::make_unique<LeafSwitch>(
        *lanes_[lane], pools_[lane], l, config_.shape, routing_, config_.spray, config_.pfc,
        config_.host_link, config_.fabric_link, spray_seeder.split(), fault_rng_));
  }
  spines_.reserve(shape.spines);
  for (const SpineId s : core::ids<SpineId>(shape.spines)) {
    const std::size_t lane = spine_lane(s);
    spines_.push_back(std::make_unique<SpineSwitch>(*lanes_[lane], pools_[lane], s,
                                                    config_.shape, config_.pfc,
                                                    config_.fabric_link, fault_rng_));
  }

  // Wire host <-> leaf.
  for (const HostId h : core::ids<HostId>(shape.num_hosts())) {
    const LeafId l = shape.leaf_of(h);
    const std::uint32_t local = shape.local_index(h);
    Host& host = *hosts_[h.v()];
    LeafSwitch& leaf_sw = *leaves_[l.v()];
    host.nic().connect(&leaf_sw, PortIndex{local});
    leaf_sw.set_upstream(PortIndex{local}, &host.nic());  // leaf can PFC-pause the NIC
    leaf_sw.host_port(local).connect(&host, PortIndex{0});
    link_lanes(host.nic(), *lanes_[leaf_lane(l)]);
    link_lanes(leaf_sw.host_port(local), sim_);
  }

  // Wire leaf <-> spine, one link pair per (leaf, uplink).
  for (const LeafId l : core::ids<LeafId>(shape.leaves)) {
    LeafSwitch& leaf_sw = *leaves_[l.v()];
    for (const UplinkIndex u : core::ids<UplinkIndex>(shape.uplinks_per_leaf())) {
      SpineSwitch& spine_sw = *spines_[shape.spine_of(u).v()];
      const PortIndex spine_port = shape.spine_port(l, u);
      const PortIndex leaf_port = shape.leaf_uplink_port(u);
      leaf_sw.uplink(u).connect(&spine_sw, spine_port);
      spine_sw.set_upstream(spine_port, &leaf_sw.uplink(u));
      spine_sw.down_port(spine_port).connect(&leaf_sw, leaf_port);
      leaf_sw.set_upstream(leaf_port, &spine_sw.down_port(spine_port));
      link_lanes(leaf_sw.uplink(u), *lanes_[spine_lane(shape.spine_of(u))]);
      link_lanes(spine_sw.down_port(spine_port), *lanes_[leaf_lane(l)]);
    }
  }
}

std::size_t FatTree::leaf_lane(LeafId l) const {
  if (lanes_.size() <= 1) return 0;
  return 1 + l.v() % (lanes_.size() - 1);
}

std::size_t FatTree::spine_lane(SpineId s) const {
  if (lanes_.size() <= 1) return 0;
  return 1 + s.v() % (lanes_.size() - 1);
}

void FatTree::link_lanes(EgressPort& port, sim::Simulator& dst) {
  if (&port.owner() == &dst) return;
  port.set_peer_lane(&dst);
  if (port.params().prop_delay < min_cross_lane_latency_) {
    min_cross_lane_latency_ = port.params().prop_delay;
  }
}

EgressPort& FatTree::downlink(LeafId leaf, UplinkIndex u) {
  SpineSwitch& spine_sw = *spines_[config_.shape.spine_of(u).v()];
  return spine_sw.down_port(config_.shape.spine_port(leaf, u));
}

void FatTree::set_uplink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  leaves_[leaf.v()]->uplink(u).set_fault(fault);
}

void FatTree::set_downlink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  downlink(leaf, u).set_fault(fault);
}

void FatTree::set_link_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  set_uplink_fault(leaf, u, fault);
  set_downlink_fault(leaf, u, fault);
}

void FatTree::disconnect_known(LeafId leaf, UplinkIndex u) {
  set_link_fault(leaf, u, FaultSpec::disconnect());
  routing_.set_known_failed(leaf, u);
}

const LinkCounters& FatTree::downlink_counters(LeafId leaf, UplinkIndex u) const {
  const SpineSwitch& spine_sw = *spines_[config_.shape.spine_of(u).v()];
  return spine_sw.down_port(config_.shape.spine_port(leaf, u)).counters();
}

const LinkCounters& FatTree::uplink_counters(LeafId leaf, UplinkIndex u) const {
  return leaves_[leaf.v()]->uplink(u).counters();
}

LinkCounters FatTree::total_fabric_counters() const {
  LinkCounters total{};
  for (const auto& h : hosts_) total += h->nic().counters();
  for (const auto& leaf : leaves_) total += leaf->link_counters();
  for (const auto& spine : spines_) total += spine->link_counters();
  return total;
}

}  // namespace flowpulse::net
