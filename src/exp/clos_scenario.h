#pragma once

// exp::ClosScenario — the sharded-event-lane headline scenario: a >= 1k-host
// 3-level Clos running a ring collective with two-tier FlowPulse monitoring
// (paper §7 "Network Topology"), runnable serially or laned with results
// bit-identical between the two. The deterministic JSON report + FNV-1a
// hash below are what the laned-equivalence tests and the CI golden pin.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collective/runner.h"
#include "core/units.h"
#include "flowpulse/three_level_system.h"
#include "net/three_level.h"
#include "sim/lane_runner.h"
#include "sim/simulator.h"
#include "transport/transport_layer.h"

namespace flowpulse::exp {

/// One run of the 3-level Clos scenario. Defaults give the 1024-host
/// headline shape: 16 pods x 8 leaves x 8 pod-spines, 8 hosts per leaf
/// (128 leaves, 128 pod-spines, 64 cores).
struct ClosScenarioConfig {
  net::ThreeLevelConfig fabric{net::ThreeLevelInfo{16, 8, 8, 8}};
  transport::TransportConfig transport{};

  // Workload: Ring-ReduceScatter over every host, rank i on host i.
  core::Bytes collective_bytes{1u << 20};
  std::uint32_t iterations = 2;
  sim::Time compute_gap = sim::Time::microseconds(5);
  sim::Time max_jitter = sim::Time::microseconds(1);

  /// Silent faults, one struct per monitored link class. The laned engine
  /// cannot shard the fabric-wide fault RNG, so only deterministic kinds
  /// (FaultSpec::drops_all(): disconnect / black-hole) keep the run laned —
  /// a probabilistic spec anywhere silently falls back to serial, exactly
  /// like exp::ScenarioConfig::lanes.
  struct LeafFault {
    net::LeafId leaf{};
    std::uint32_t spine_index = 0;  // fplint: ok(raw-scalar-id): pod-local ordinal kept raw because perfbench/fpbench.cc brace-initializes LeafFault; build() names the link UplinkIndex{spine_index}
    net::FaultSpec spec{};
  };
  struct CoreFault {
    std::uint32_t pod = 0;
    std::uint32_t spine_index = 0;  // fplint: ok(raw-scalar-id): pod-local ordinal for ThreeLevelFatTree::set_core_link_fault's documented raw-index boundary
    std::uint32_t k = 0;
    net::FaultSpec spec{};
  };
  std::vector<LeafFault> leaf_faults;
  std::vector<CoreFault> core_faults;

  /// Event-lane count: -1 consults FLOWPULSE_LANES, 0/1 serial, >= 2
  /// sharded (lane 0 hosts; pod p -> lane 1 + (p mod (lanes-1)); core c
  /// likewise — see net::ThreeLevelFatTree's laned constructor).
  std::int32_t lanes = -1;

  std::uint64_t seed = 1;
};

struct ClosScenarioResult {
  bool laned = false;          ///< did the run actually shard?
  std::uint32_t lanes = 1;     ///< lane count that executed (1 == serial)
  std::vector<double> leaf_iteration_max_dev;
  std::vector<double> spine_iteration_max_dev;
  std::vector<fp::DetectionResult> faulty_leaves;
  std::vector<fp::DetectionResult> faulty_spines;
  net::LinkCounters fabric_counters{};
  sim::Time sim_end = sim::Time::zero();
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
};

/// Builds and runs one Clos experiment. Like exp::Scenario, the pieces stay
/// accessible between construction and run().
class ClosScenario {
 public:
  explicit ClosScenario(ClosScenarioConfig config);
  ~ClosScenario();

  ClosScenario(const ClosScenario&) = delete;
  ClosScenario& operator=(const ClosScenario&) = delete;

  /// Run to completion and summarize.
  ClosScenarioResult run();

  /// True when this scenario actually runs sharded.
  [[nodiscard]] bool laned() const { return lane_runner_ != nullptr; }
  [[nodiscard]] sim::Simulator& simulator() { return *lanes_.front(); }
  [[nodiscard]] net::ThreeLevelFatTree& fabric() { return *fabric_; }
  [[nodiscard]] fp::ThreeLevelFlowPulse& flowpulse() { return *flowpulse_; }
  [[nodiscard]] const ClosScenarioConfig& config() const { return config_; }

 private:
  void build();

  ClosScenarioConfig config_;
  std::vector<std::unique_ptr<sim::Simulator>> lanes_;  ///< lane 0 first
  std::unique_ptr<sim::LaneRunner> lane_runner_;
  std::unique_ptr<net::ThreeLevelFatTree> fabric_;
  std::unique_ptr<transport::TransportLayer> transports_;
  std::unique_ptr<fp::ThreeLevelFlowPulse> flowpulse_;
  std::unique_ptr<collective::CollectiveRunner> runner_;
};

/// Deterministic JSON report (no wall-clock fields besides wall_seconds).
[[nodiscard]] std::string clos_to_json(const ClosScenarioResult& result);

/// FNV-1a 64-bit over clos_to_json with wall_seconds zeroed — the value the
/// serial-vs-laned equivalence tests and the CI golden compare.
[[nodiscard]] std::uint64_t clos_report_hash(const ClosScenarioResult& result);

/// Convenience: build, run, hash.
[[nodiscard]] std::uint64_t clos_report_hash(const ClosScenarioConfig& config);

}  // namespace flowpulse::exp
