#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collective/demand_matrix.h"
#include "flowpulse/detector.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
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
class ThreeLevelAnalyticalModel {
 public:
  ThreeLevelAnalyticalModel(const net::ThreeLevelInfo& info, std::uint32_t mtu_payload,
                            core::Bytes header_bytes)
      : info_{info}, mtu_payload_{mtu_payload}, header_bytes_{header_bytes} {}

  [[nodiscard]] ThreeLevelPrediction predict(const collective::DemandMatrix& demand,
                                             const net::RoutingState& routing) const;

 private:
  [[nodiscard]] double wire_bytes(core::Bytes payload) const {
    if (payload == core::Bytes{0}) return 0.0;
    const std::uint64_t segments = (payload.v() + mtu_payload_ - 1) / mtu_payload_;
    return static_cast<double>(payload.v() + segments * header_bytes_.v());
  }

  net::ThreeLevelInfo info_;
  std::uint32_t mtu_payload_;
  core::Bytes header_bytes_;
};

/// FlowPulse deployed at BOTH tiers of a 3-level fabric: every leaf watches
/// its ingress-from-pod-spine ports (localizes leaf↔spine links), and every
/// pod-spine watches its ingress-from-core ports (localizes spine↔core
/// links) — the paper's §7 proposal. Still no coordination: each switch
/// compares its own counters against its own slice of the prediction.
///
/// Monitors only record. flush() judges every record finalized since the
/// previous flush, per tier in canonical (iteration, row) order, so serial
/// and laned runs evaluate the same records in the same order.
class ThreeLevelFlowPulse {
 public:
  ThreeLevelFlowPulse(net::ThreeLevelFatTree& fabric, double threshold,
                      std::uint16_t job = 0);

  void set_prediction(ThreeLevelPrediction prediction);

  /// Finalize every monitor's in-flight iteration, then judge the records
  /// finalized since the last flush. Without a prediction they wait for a
  /// later flush.
  void flush();

  [[nodiscard]] const std::vector<DetectionResult>& leaf_results() const {
    return leaf_results_;
  }
  [[nodiscard]] const std::vector<DetectionResult>& spine_results() const {
    return spine_results_;
  }
  [[nodiscard]] std::vector<DetectionResult> faulty_leaf_results() const;
  [[nodiscard]] std::vector<DetectionResult> faulty_spine_results() const;
  /// Largest deviation per iteration at each tier.
  [[nodiscard]] std::vector<double> leaf_iteration_max_dev() const;
  [[nodiscard]] std::vector<double> spine_iteration_max_dev() const;

  [[nodiscard]] PortMonitor& leaf_monitor(net::LeafId l) { return *leaf_monitors_[l.v()]; }
  // detlint: ok(raw-scalar-id): pod-spine ordinal from
  // ThreeLevelInfo::pod_spine_id — documented raw-index boundary
  [[nodiscard]] PortMonitor& spine_monitor(std::uint32_t pod_spine_id) {
    return *spine_monitors_[pod_spine_id];
  }

 private:
  static std::vector<double> max_dev_series(const std::vector<DetectionResult>& results);

  double threshold_;
  std::vector<std::unique_ptr<PortMonitor>> leaf_monitors_;
  std::vector<std::unique_ptr<PortMonitor>> spine_monitors_;
  std::unique_ptr<ThreeLevelPrediction> prediction_;
  std::vector<DetectionResult> leaf_results_;
  std::vector<DetectionResult> spine_results_;
  /// Per-monitor count of history records already judged.
  std::vector<std::size_t> judged_leaf_;
  std::vector<std::size_t> judged_spine_;
};

}  // namespace flowpulse::fp
