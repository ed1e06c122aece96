#include "flowpulse/analytical_model.h"

namespace flowpulse::fp {

PortLoadMap AnalyticalModel::predict(const collective::DemandMatrix& demand,
                                     const net::RoutingState& routing) const {
  PortLoadMap map{info_.leaves, info_.uplinks_per_leaf()};
  for_each_share(demand, routing,
                 [&map](net::LeafId src_leaf, net::LeafId dst_leaf,
                        const std::vector<net::UplinkIndex>& valid, double share) {
                   for (const net::UplinkIndex u : valid) map.add(dst_leaf, u, src_leaf, share);
                 });
  return map;
}

}  // namespace flowpulse::fp
