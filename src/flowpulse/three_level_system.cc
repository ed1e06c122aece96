#include "flowpulse/three_level_system.h"

#include <algorithm>

namespace flowpulse::fp {

ThreeLevelPrediction ThreeLevelAnalyticalModel::predict(
    const collective::DemandMatrix& demand, const net::RoutingState& routing) const {
  ThreeLevelPrediction pred{info_};
  const std::uint32_t hosts = demand.hosts();
  for (const net::HostId src : core::ids<net::HostId>(hosts)) {
    const net::LeafId src_leaf = info_.leaf_of(src);
    for (const net::HostId dst : core::ids<net::HostId>(hosts)) {
      const core::Bytes d = demand.at(src, dst);
      if (d == core::Bytes{0}) continue;
      const net::LeafId dst_leaf = info_.leaf_of(dst);
      if (src_leaf == dst_leaf) continue;  // stays under the leaf
      const auto& valid = routing.valid_uplinks(src_leaf, dst_leaf);
      if (valid.empty()) continue;
      const double per_spine = wire_bytes(d) / static_cast<double>(valid.size());
      const std::uint32_t dst_pod = info_.pod_of_leaf(dst_leaf);
      const bool cross_pod = info_.pod_of_leaf(src_leaf) != dst_pod;
      for (const net::UplinkIndex s : valid) {
        pred.leaf_level.add(dst_leaf, s, src_leaf, per_spine);
        if (cross_pod) {
          const double per_core = per_spine / info_.cores_per_group();
          // spine_level rows live in monitor-id space: the global pod-spine
          // id plays the row role LeafId plays at the leaf tier.
          const net::LeafId ps_row{info_.pod_spine_id(dst_pod, s.v())};
          for (std::uint32_t k = 0; k < info_.cores_per_group(); ++k) {
            pred.spine_level.add(ps_row, net::UplinkIndex{k}, src_leaf, per_core);
          }
        }
      }
    }
  }
  return pred;
}

ThreeLevelFlowPulse::ThreeLevelFlowPulse(net::ThreeLevelFatTree& fabric, double threshold,
                                         std::uint16_t job)
    : threshold_{threshold} {
  const net::ThreeLevelInfo& info = fabric.info();
  for (const net::LeafId l : core::ids<net::LeafId>(info.num_leaves())) {
    leaf_monitors_.push_back(std::make_unique<PortMonitor>(l, info.leaf_tier(), job));
    leaf_monitors_.back()->attach(fabric.leaf(l));
  }
  for (std::uint32_t pod = 0; pod < info.pods; ++pod) {
    for (std::uint32_t s = 0; s < info.spines_per_pod; ++s) {
      spine_monitors_.push_back(std::make_unique<PortMonitor>(
          info.pod_spine_id(pod, s), info.cores_per_group(), info.num_leaves(),
          info.hosts_per_leaf, job));
      PortMonitor* mon = spine_monitors_.back().get();
      fabric.pod_spine(pod, s).set_core_ingress_hook(
          [mon](std::uint32_t k, const net::Packet& p) {
            mon->record(net::UplinkIndex{k}, p);
          });
    }
  }
}

void ThreeLevelFlowPulse::set_prediction(ThreeLevelPrediction prediction) {
  prediction_ = std::make_unique<ThreeLevelPrediction>(std::move(prediction));
}

void ThreeLevelFlowPulse::flush() {
  for (auto& m : leaf_monitors_) m->flush();
  for (auto& m : spine_monitors_) m->flush();
  if (!prediction_) return;
  for (const IterationRecord* r : take_new_records(leaf_monitors_, judged_leaf_)) {
    leaf_results_.push_back(evaluate_record(prediction_->leaf_level, threshold_, *r));
  }
  for (const IterationRecord* r : take_new_records(spine_monitors_, judged_spine_)) {
    spine_results_.push_back(evaluate_record(prediction_->spine_level, threshold_, *r));
  }
}

std::vector<DetectionResult> ThreeLevelFlowPulse::faulty_leaf_results() const {
  std::vector<DetectionResult> out;
  std::copy_if(leaf_results_.begin(), leaf_results_.end(), std::back_inserter(out),
               [](const DetectionResult& r) { return r.faulty(); });
  return out;
}

std::vector<DetectionResult> ThreeLevelFlowPulse::faulty_spine_results() const {
  std::vector<DetectionResult> out;
  std::copy_if(spine_results_.begin(), spine_results_.end(), std::back_inserter(out),
               [](const DetectionResult& r) { return r.faulty(); });
  return out;
}

std::vector<double> ThreeLevelFlowPulse::max_dev_series(
    const std::vector<DetectionResult>& results) {
  std::vector<double> devs;
  for (const DetectionResult& r : results) {
    if (r.iteration.v() >= devs.size()) devs.resize(r.iteration.v() + 1, 0.0);
    devs[r.iteration.v()] = std::max(devs[r.iteration.v()], r.max_rel_dev);
  }
  return devs;
}

std::vector<double> ThreeLevelFlowPulse::leaf_iteration_max_dev() const {
  return max_dev_series(leaf_results_);
}

std::vector<double> ThreeLevelFlowPulse::spine_iteration_max_dev() const {
  return max_dev_series(spine_results_);
}

}  // namespace flowpulse::fp
