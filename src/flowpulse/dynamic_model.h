#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "collective/runner.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/port_load.h"
#include "flowpulse/system.h"
#include "net/routing.h"
#include "net/topology_info.h"

namespace flowpulse::fp {

/// §7 "Beyond reduction collectives": monitoring collectives whose demand
/// matrix changes every iteration (e.g. expert-parallel AlltoAll).
///
/// The tracker recomputes the analytical prediction for each iteration from
/// that iteration's actual schedule (extracted from the collective runner
/// when the iteration completes — in deployment, the communication library
/// would push the demand alongside the flow tags) and serves it to the
/// FlowPulseSystem in kDynamic mode. Leaf monitors finalize iteration i
/// only after iteration i+1's first packet, which is strictly after the
/// runner's end-of-iteration hook, so the prediction is always ready.
class DynamicDemandTracker {
 public:
  DynamicDemandTracker(const net::TopologyInfo& info, const net::RoutingState& routing,
                       std::uint32_t mtu_payload, core::Bytes header_bytes)
      : info_{info}, routing_{routing}, model_{info, mtu_payload, header_bytes} {}

  /// Register the prediction for one iteration from its schedule.
  void record_schedule(net::IterIndex iteration, const collective::CommSchedule& schedule,
                       const std::vector<net::HostId>& rank_to_host) {
    const auto demand =
        collective::DemandMatrix::from_schedule(schedule, rank_to_host, info_.num_hosts());
    predictions_.emplace(iteration, model_.predict(demand, routing_));
  }

  [[nodiscard]] const PortLoadMap* prediction_for(net::IterIndex iteration) const {
    auto it = predictions_.find(iteration);
    return it == predictions_.end() ? nullptr : &it->second;
  }

  /// Wire a runner (whose schedule may regenerate each iteration) to a
  /// FlowPulseSystem configured with ModelKind::kDynamic.
  void attach(collective::CollectiveRunner& runner, FlowPulseSystem& system) {
    runner.add_iteration_hook([this, &runner](net::IterIndex iter, sim::Time, sim::Time) {
      record_schedule(iter, runner.current_schedule(), runner.config().hosts);
    });
    system.set_prediction_provider(
        [this](net::IterIndex iter) { return prediction_for(iter); });
  }

  [[nodiscard]] std::size_t tracked_iterations() const { return predictions_.size(); }

 private:
  net::TopologyInfo info_;
  const net::RoutingState& routing_;
  AnalyticalModel model_;
  // Ordered container: iteration-keyed simulation state stays deterministic
  // even if a future consumer iterates it (fplint bans unordered here).
  std::map<net::IterIndex, PortLoadMap> predictions_;
};

}  // namespace flowpulse::fp
