#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/units.h"
#include "net/fat_tree.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/transport_layer.h"

namespace flowpulse::baseline {

/// Pingmesh-style active prober (the path-probing baseline, §3): every
/// `interval`, each host sends small probe packets to `probes_per_round`
/// random peers; a probe not arriving within `kProbeTimeout` counts as
/// lost.
///
/// The paper's two criticisms are both directly measurable here:
///  1. Overhead — probes inject extra traffic exactly when the fabric is
///     busiest (bytes_injected()).
///  2. Insensitivity — a small probe crossing a p-drop link is lost with
///     probability ≈ p per packet, and under APS the prober cannot even
///     choose which spine it exercises, so localizing a 1–3% gray link
///     takes many rounds (loss_rate(), detection latency in the bench).
struct PingmeshConfig {
  sim::Time interval = sim::Time::microseconds(50);
  std::uint32_t probes_per_round = 4;   ///< destinations per host per round
  core::Bytes probe_bytes{64};          ///< wire size of one probe
};

class PingmeshProber {
 public:
  static constexpr sim::Time kProbeTimeout = sim::Time::microseconds(50);
  static constexpr net::Priority kProbePriority = net::Priority::kBackground;

  PingmeshProber(sim::Simulator& simulator, net::FatTree& fabric,
                 transport::TransportLayer& transports, PingmeshConfig config);

  /// Probe rounds run from now until `horizon` (absolute sim time).
  void start(sim::Time horizon);

  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t probes_lost() const { return probes_lost_; }
  [[nodiscard]] core::Bytes bytes_injected() const {
    return config_.probe_bytes * probes_sent_;
  }
  [[nodiscard]] double loss_rate() const {
    return probes_sent_ == 0 ? 0.0
                             : static_cast<double>(probes_lost_) /
                                   static_cast<double>(probes_sent_);
  }
  /// Simulated time of the first observed probe loss, or Time::max().
  [[nodiscard]] sim::Time first_loss_time() const { return first_loss_; }

 private:
  void round();
  void on_probe_received(std::uint64_t probe_id);
  void on_probe_timeout(std::uint64_t probe_id);

  sim::Simulator& sim_;
  net::FatTree& fabric_;
  PingmeshConfig config_;
  sim::Rng rng_;
  sim::Time horizon_ = sim::Time::zero();

  std::uint64_t next_probe_id_ = 1;
  // Ordered container: probe bookkeeping is simulation state (loss counts
  // feed detection-latency results), so iteration order must be stable.
  std::map<std::uint64_t, bool> outstanding_;  // id → received
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_lost_ = 0;
  sim::Time first_loss_ = sim::Time::max();
};

}  // namespace flowpulse::baseline
