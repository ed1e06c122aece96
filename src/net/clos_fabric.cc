#include "net/clos_fabric.h"

namespace flowpulse::net {

ClosFabric::ClosFabric(std::vector<sim::Simulator*> lanes, TopologyInfo leaf_tier,
                       std::uint32_t leaves_per_pod, SprayPolicy spray, PfcConfig pfc,
                       LinkParams host_link, LinkParams fabric_link, std::uint64_t seed,
                       std::uint64_t fault_seed)
    : lanes_{std::move(lanes)},
      pools_(lanes_.size()),
      fault_rng_{fault_seed},
      leaf_tier_{leaf_tier},
      routing_{leaf_tier.leaves, leaf_tier.uplinks_per_leaf()} {
  hosts_.reserve(leaf_tier_.num_hosts());
  for (const HostId h : core::ids<HostId>(leaf_tier_.num_hosts())) {
    hosts_.push_back(std::make_unique<Host>(*lanes_[0], pools_[0], h, host_link, fault_rng_));
  }
  // The spray seeder hands out splits in leaf order regardless of lane
  // layout, so per-leaf spray streams are identical in every build.
  sim::Rng spray_seeder{seed};
  leaves_.reserve(leaf_tier_.leaves);
  for (const LeafId l : core::ids<LeafId>(leaf_tier_.leaves)) {
    leaves_.push_back(build_switch<LeafSwitch>(l.v() / leaves_per_pod, l, leaf_tier_, routing_,
                                               spray, pfc, host_link, fabric_link,
                                               spray_seeder.split()));
  }

  for (const HostId h : core::ids<HostId>(leaf_tier_.num_hosts())) {
    Host& host = *hosts_[h.v()];
    LeafSwitch& leaf_sw = *leaves_[leaf_tier_.leaf_of(h).v()];
    const PortIndex port{leaf_tier_.local_index(h)};
    host.nic().connect(&leaf_sw, port);
    leaf_sw.set_upstream(port, &host.nic());  // leaf can PFC-pause the NIC
    link_lanes(host.nic(), leaf_sw.simulator());
    leaf_sw.port(port).connect(&host, PortIndex{0});
    link_lanes(leaf_sw.port(port), host.nic().owner());
  }
}

void ClosFabric::wire(Switch& a, PortIndex a_port, Switch& b, PortIndex b_port) {
  a.port(a_port).connect(&b, b_port);
  b.set_upstream(b_port, &a.port(a_port));
  link_lanes(a.port(a_port), b.simulator());
  b.port(b_port).connect(&a, a_port);
  a.set_upstream(a_port, &b.port(b_port));
  link_lanes(b.port(b_port), a.simulator());
}

void ClosFabric::link_lanes(EgressPort& port, sim::Simulator& dst) {
  if (&port.owner() == &dst) return;
  port.set_peer_lane(&dst);
  if (port.params().prop_delay < min_cross_lane_latency_) {
    min_cross_lane_latency_ = port.params().prop_delay;
  }
}

void ClosFabric::set_uplink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  leaves_[leaf.v()]->uplink(u).set_fault(fault);
}

void ClosFabric::set_downlink_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  leaves_[leaf.v()]->upstream(u).set_fault(fault);
}

void ClosFabric::set_link_fault(LeafId leaf, UplinkIndex u, FaultSpec fault) {
  set_uplink_fault(leaf, u, fault);
  set_downlink_fault(leaf, u, fault);
}

void ClosFabric::disconnect_known(LeafId leaf, UplinkIndex u) {
  set_link_fault(leaf, u, FaultSpec::disconnect());
  routing_.set_known_failed(leaf, u);
}

const LinkCounters& ClosFabric::downlink_counters(LeafId leaf, UplinkIndex u) const {
  return leaves_[leaf.v()]->upstream(u).counters();
}

const LinkCounters& ClosFabric::uplink_counters(LeafId leaf, UplinkIndex u) const {
  return leaves_[leaf.v()]->uplink(u).counters();
}

LinkCounters ClosFabric::total_fabric_counters() const {
  LinkCounters total{};
  for (const auto& h : hosts_) total += h->nic().counters();
  for (const Switch* sw : switches_) total += sw->link_counters();
  return total;
}

}  // namespace flowpulse::net
