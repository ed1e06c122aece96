#include "flowpulse/three_level_system.h"

namespace flowpulse::fp {

ThreeLevelPrediction ThreeLevelAnalyticalModel::predict(
    const collective::DemandMatrix& demand, const net::RoutingState& routing) const {
  ThreeLevelPrediction pred{info_};
  const std::uint32_t cores = info_.cores_per_group();
  leaf_model_.for_each_share(
      demand, routing,
      [&](net::LeafId src_leaf, net::LeafId dst_leaf, const std::vector<net::UplinkIndex>& valid,
          double per_spine) {
        const std::uint32_t dst_pod = info_.pod_of_leaf(dst_leaf);
        const bool cross_pod = info_.pod_of_leaf(src_leaf) != dst_pod;
        const double per_core = per_spine / cores;
        for (const net::UplinkIndex s : valid) {
          pred.leaf_level.add(dst_leaf, s, src_leaf, per_spine);
          if (!cross_pod) continue;
          // spine_level rows live in monitor-id space: the global pod-spine
          // id plays the row role LeafId plays at the leaf tier.
          const net::LeafId ps_row{info_.pod_spine_id(dst_pod, s.v())};
          for (const net::UplinkIndex k : core::ids<net::UplinkIndex>(cores)) {
            pred.spine_level.add(ps_row, k, src_leaf, per_core);
          }
        }
      });
  return pred;
}

ThreeLevelFlowPulse::ThreeLevelFlowPulse(net::ThreeLevelFatTree& fabric)
    : leaf_tier_{Tier::leaves_of(fabric.info().leaf_tier()), SystemConfig{}},
      // Every leaf sends through the pod-spines: the rows are not the senders.
      spine_tier_{Tier{fabric.info().num_pod_spines(), fabric.info().cores_per_group(),
                       fabric.info().num_leaves(), fabric.info().hosts_per_leaf},
                  SystemConfig{}} {
  const net::ThreeLevelInfo& info = fabric.info();
  for (const net::LeafId l : core::ids<net::LeafId>(info.num_leaves())) {
    leaf_tier_.attach(l, fabric.leaf(l));
  }
  for (std::uint32_t pod = 0; pod < info.pods; ++pod) {
    for (std::uint32_t s = 0; s < info.spines_per_pod; ++s) {
      spine_tier_.attach(net::LeafId{info.pod_spine_id(pod, s)}, fabric.pod_spine(pod, s));
    }
  }
  leaf_tier_.set_deferred_evaluation(true);
  spine_tier_.set_deferred_evaluation(true);
}

void ThreeLevelFlowPulse::set_prediction(ThreeLevelPrediction prediction) {
  leaf_tier_.set_prediction(std::move(prediction.leaf_level));
  spine_tier_.set_prediction(std::move(prediction.spine_level));
}

void ThreeLevelFlowPulse::flush() {
  leaf_tier_.flush();
  spine_tier_.flush();
}

}  // namespace flowpulse::fp
