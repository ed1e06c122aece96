#pragma once

#include <cstdint>
#include <vector>

#include "collective/demand_matrix.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/detector.h"
#include "flowpulse/port_load.h"
#include "flowpulse/system.h"
#include "net/three_level.h"

namespace flowpulse::fp {

/// Per-port load predictions for both monitored tiers of a 3-level fabric.
struct ThreeLevelPrediction {
  /// Rows: global leaves; columns: pod-spine index (ingress from spines).
  PortLoadMap leaf_level;
  /// Rows: global pod-spine ids; columns: core index within the group
  /// (ingress from cores); senders: every global leaf.
  PortLoadMap spine_level;

  explicit ThreeLevelPrediction(const net::ThreeLevelInfo& info)
      : leaf_level{info.num_leaves(), info.spines_per_pod},
        spine_level{info.num_pod_spines(), info.cores_per_group(), info.num_leaves()} {}
};

/// Analytical per-link load model extended to 3 levels (paper §7 "Network
/// Topology"): a cross-pod pair with demand d and v valid pod-spine indices
/// spreads d/v over each index; within an index's core group the pod-spine
/// sprays evenly, so each core→pod-spine port carries d/(v·K). Same-pod
/// traffic turns around at the pod-spine and never reaches cores.
/// Known faults are supported on leaf↔pod-spine links (the RoutingState),
/// which removes the pod-spine index end-to-end — exactly how the fabric
/// routes around them.
///
/// The leaf tier is the 2-level AnalyticalModel over info.leaf_tier(); its
/// one visit of each pair's share also fills the pod-spine tier.
class ThreeLevelAnalyticalModel {
 public:
  ThreeLevelAnalyticalModel(const net::ThreeLevelInfo& info, std::uint32_t mtu_payload,
                            core::Bytes header_bytes)
      : info_{info}, leaf_model_{info.leaf_tier(), mtu_payload, header_bytes} {}

  [[nodiscard]] ThreeLevelPrediction predict(const collective::DemandMatrix& demand,
                                             const net::RoutingState& routing) const;

 private:
  net::ThreeLevelInfo info_;
  AnalyticalModel leaf_model_;
};

/// FlowPulse deployed at BOTH tiers of a 3-level fabric: every leaf watches
/// its ingress-from-pod-spine ports (localizes leaf↔spine links), and every
/// pod-spine watches its ingress-from-core ports (localizes spine↔core
/// links) — the paper's §7 proposal. Still no coordination: each switch
/// compares its own counters against its own slice of the prediction.
///
/// Each tier is one FlowPulseSystem with the default SystemConfig, judged
/// only at flush() by deferred evaluation, in canonical (iteration, row)
/// order, so serial and laned runs evaluate the same records in the same
/// order.
class ThreeLevelFlowPulse {
 public:
  explicit ThreeLevelFlowPulse(net::ThreeLevelFatTree& fabric);

  /// Arm both tiers; records flushed before this are dropped.
  void set_prediction(ThreeLevelPrediction prediction);

  /// Finalize every monitor's in-flight iteration, then judge the records
  /// finalized since the last flush.
  void flush();

  /// Rows: global leaves; ports: pod-spine index.
  [[nodiscard]] FlowPulseSystem& leaf_tier() { return leaf_tier_; }
  /// Rows: global pod-spine ids; ports: core index within the group.
  [[nodiscard]] FlowPulseSystem& spine_tier() { return spine_tier_; }

  [[nodiscard]] const std::vector<DetectionResult>& leaf_results() const {
    return leaf_tier_.results();
  }
  [[nodiscard]] const std::vector<DetectionResult>& spine_results() const {
    return spine_tier_.results();
  }

 private:
  FlowPulseSystem leaf_tier_;
  FlowPulseSystem spine_tier_;
};

}  // namespace flowpulse::fp
