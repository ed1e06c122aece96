#include "net/fat_tree.h"

namespace flowpulse::net {

FatTree::FatTree(sim::Simulator& simulator, FatTreeConfig config)
    : FatTree{std::vector<sim::Simulator*>{&simulator}, config} {}

FatTree::FatTree(std::vector<sim::Simulator*> lanes, FatTreeConfig config)
    : ClosFabric{std::move(lanes), config.shape, /*leaves_per_pod=*/1, config.spray, config.pfc,
                 config.host_link, config.fabric_link, config.seed, config.seed ^ 0xfa017ull},
      config_{config} {
  const TopologyInfo& shape = config_.shape;
  spines_.reserve(shape.spines);
  for (const SpineId s : core::ids<SpineId>(shape.spines)) {
    spines_.push_back(
        build_switch<SpineSwitch>(s.v(), s, shape, config_.pfc, config_.fabric_link));
  }
  for (const LeafId l : core::ids<LeafId>(shape.leaves)) {
    for (const UplinkIndex u : core::ids<UplinkIndex>(shape.uplinks_per_leaf())) {
      wire(leaf(l), shape.leaf_uplink_port(u), spine(shape.spine_of(u)), shape.spine_port(l, u));
    }
  }
}

}  // namespace flowpulse::net
