#pragma once

#include <cstdint>
#include <vector>

#include "collective/demand_matrix.h"
#include "core/units.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "net/fault.h"
#include "net/routing.h"
#include "net/topology_info.h"
#include "sim/time.h"

namespace flowpulse::fp {

/// Flow-level fast-forward of one collective iteration: synthesizes the
/// per-port × sender byte counters every PortMonitor would have finalized,
/// without simulating a single packet.
///
/// The healthy baseline is AnalyticalModel::predict itself (d/(s−f) spray
/// shares in wire bytes — EXPERIMENTS.md FIG2 measures it within 0.2% of
/// packet simulation). On top of it:
///
///  * Silent faults attenuate each (sender, uplink, receiver) share by a
///    first-order survival weight
///    w = (1 − p_up·duty) · (1 − p_down·duty), where p is the fault kind's
///    stationary drop probability and duty its active fraction of the
///    iteration window (flap-aware). The dropped share is re-sprayed
///    uniformly over the pair's valid uplinks — the reliable transport
///    retransmits lost segments and APS spreads the retransmissions — so
///    the faulty port shows the paper's shortfall and its peers the
///    matching surplus. Second-order effects (retransmit headers, repeated
///    loss) are deliberately ignored; packet mode owns those windows.
///
///  * Deterministic multiplicative noise (seeded per leaf × iteration)
///    models spray imbalance so downstream detector statistics stay
///    honest. Zero noise_rel yields the exact expectation.
///
/// The synthesis is re-baselined whenever routing changes (quarantine /
/// restore), exactly like the detector's prediction.
class FastForwardModel {
 public:
  struct Config {
    std::uint32_t mtu_payload = 4096;
    core::Bytes header_bytes{64};
    double noise_rel = 0.0;
    std::uint64_t seed = 1;
  };

  /// One silent fault the flow-level survival model should account for.
  struct FlowFault {
    net::LeafId leaf{};
    net::UplinkIndex uplink{};
    bool uplink_dir = true;    ///< affects traffic the leaf sends up
    bool downlink_dir = true;  ///< affects traffic delivered down to the leaf
    net::FaultSpec spec{};
  };

  FastForwardModel(const net::TopologyInfo& info, Config config);

  void set_faults(std::vector<FlowFault> faults) { faults_ = std::move(faults); }

  /// Recompute the healthy expectation for the current routing state. Must
  /// be called before the first synthesize() and after every routing change;
  /// keeps a reference to `routing` for per-pair re-spray sets.
  void rebaseline(const collective::DemandMatrix& demand, const net::RoutingState& routing);

  /// Synthesize what `leaf`'s PortMonitor would have finalized for the
  /// iteration spanning [window_start, window_end).
  [[nodiscard]] IterationRecord synthesize(net::LeafId leaf, net::IterIndex iteration,
                                           sim::Time window_start,
                                           sim::Time window_end) const;

  /// Analytic iteration-duration estimate: serialization of the busiest
  /// host's wire bytes at `host_rate`, plus pipeline slack. Seeds the
  /// fast-forward clock; kHybrid then refines it from packet iterations.
  [[nodiscard]] sim::Time estimate_iteration_time(const collective::DemandMatrix& demand,
                                                  core::GbitsPerSec host_rate) const;

  /// Stationary drop probability of a fault kind (flap/duty excluded).
  [[nodiscard]] static double stationary_drop(const net::FaultSpec& spec);
  /// Fraction of [window_start, window_end) during which `spec` is active.
  [[nodiscard]] static double active_fraction(const net::FaultSpec& spec,
                                              sim::Time window_start, sim::Time window_end);

  [[nodiscard]] const PortLoadMap& baseline() const { return baseline_; }

 private:
  [[nodiscard]] double survival(net::LeafId src, net::UplinkIndex u, net::LeafId dst,
                                sim::Time ws, sim::Time we) const;

  net::TopologyInfo info_;
  Config config_;
  AnalyticalModel model_;
  std::vector<FlowFault> faults_;
  PortLoadMap baseline_;
  const net::RoutingState* routing_ = nullptr;
};

}  // namespace flowpulse::fp
