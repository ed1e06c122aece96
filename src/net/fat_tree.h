#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/clos_fabric.h"
#include "net/egress_port.h"
#include "net/switch.h"
#include "net/topology_info.h"
#include "net/types.h"
#include "sim/simulator.h"

namespace flowpulse::net {

/// Configuration of a 2-level non-blocking fat tree (paper §6 default:
/// 32 leaves × 16 spines, one host per leaf).
struct FatTreeConfig {
  TopologyInfo shape{};
  LinkParams host_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  LinkParams fabric_link{core::GbitsPerSec{400.0}, sim::Time::nanoseconds(200)};
  SprayPolicy spray = SprayPolicy::kAdaptive;
  PfcConfig pfc{};
  std::uint64_t seed = 0x5eed;  ///< seeds spray tie-breaks and fault sampling
};

/// The 2-level fabric: the ClosFabric's hosts and leaves, plus the spine
/// switches and one leaf<->spine link pair per (leaf, uplink).
class FatTree : public ClosFabric {
 public:
  FatTree(sim::Simulator& simulator, FatTreeConfig config);

  /// Sharded build (see ClosFabric for the lane rule): leaf l is group l
  /// and spine s group s, so every leaf<->spine hop can cross lanes.
  FatTree(std::vector<sim::Simulator*> lanes, FatTreeConfig config);

  [[nodiscard]] const TopologyInfo& info() const { return config_.shape; }
  [[nodiscard]] const FatTreeConfig& config() const { return config_; }

  [[nodiscard]] SpineSwitch& spine(SpineId s) { return *spines_[s.v()]; }

 private:
  FatTreeConfig config_;
  std::vector<std::unique_ptr<SpineSwitch>> spines_;
};

}  // namespace flowpulse::net
