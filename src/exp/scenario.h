#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collective/demand_matrix.h"
#include "core/units.h"
#include "collective/runner.h"
#include "collective/schedule.h"
#include "ctrl/controller.h"
#include "flowpulse/fastforward.h"
#include "flowpulse/fidelity.h"
#include "flowpulse/system.h"
#include "net/fat_tree.h"
#include "obs/trace.h"
#include "sim/lane_runner.h"
#include "sim/simulator.h"
#include "transport/transport_layer.h"

namespace flowpulse::exp {

/// A silent fault to inject during the run.
struct NewFault {
  enum class Where : std::uint8_t { kDownlink, kUplink, kBoth };
  net::LeafId leaf{};
  net::UplinkIndex uplink{};
  Where where = Where::kBoth;
  net::FaultSpec spec{};
};

/// Complete description of one experiment run: fabric, faults, workload,
/// and the FlowPulse deployment. This is the paper's §6 setup in one
/// struct; defaults match the paper's defaults (32 leaves × 16 spines,
/// Ring-AllReduce over one host per leaf, lossless fabric, 5 µs RTO,
/// analytical model, 1% threshold).
struct ScenarioConfig {
  net::FatTreeConfig fabric{};
  transport::TransportConfig transport{};

  // Workload.
  collective::CollectiveKind collective = collective::CollectiveKind::kRingReduceScatter;
  core::Bytes collective_bytes{8ull << 20};
  std::uint32_t iterations = 6;
  sim::Time compute_gap = sim::Time::microseconds(10);
  sim::Time max_jitter = sim::Time::microseconds(1);
  bool validate_data = false;

  /// Optional second, unmeasured job sharing the fabric (paper §5.1 /
  /// §7 "Parallel Jobs"): an untagged ring collective at kBackground
  /// priority over the same hosts, continuously re-iterating until the
  /// measured job finishes. bytes == 0 disables it.
  struct BackgroundJob {
    core::Bytes bytes{};
    net::Priority priority = net::Priority::kBackground;
  };
  BackgroundJob background{};

  // Faults.
  std::vector<std::pair<net::LeafId, net::UplinkIndex>> preexisting;  ///< known, disconnected
  std::vector<NewFault> new_faults;                                   ///< silent

  // FlowPulse deployment.
  fp::SystemConfig flowpulse{};

  /// Closed-loop mitigation (ctrl::MitigationController). Only wired for the
  /// fixed-model modes (kAnalytical / kSimulation): re-baselining means
  /// re-running the analytical prediction over the updated RoutingState.
  ctrl::MitigationPolicy mitigation{};

  /// Hybrid-fidelity engine (fp::FidelityPolicy). kPacket (the default)
  /// runs the untouched packet-level path. kHybrid / kFlow fast-forward
  /// healthy iterations analytically; they require a fixed model
  /// (kAnalytical / kSimulation) and no background job — unsupported
  /// scenarios silently fall back to packet fidelity (result.fidelity
  /// reports what actually ran).
  fp::FidelityPolicy fidelity{};

  /// Flight-recorder tracing. trace.level == kOff defers to the
  /// FLOWPULSE_TRACE environment variable (obs::env_level()), so any run
  /// can be traced without code changes. With neither set, nothing records.
  obs::TraceConfig trace{};

  /// Sharded event lanes (conservative-PDES parallel simulation): the
  /// fabric is partitioned across `lanes` Simulators — lane 0 drives hosts,
  /// transport and the collective; leaves and spines round-robin over the
  /// rest — and a sim::LaneRunner executes them in lock-step rounds bounded
  /// by the minimum cross-lane link latency. Results are bit-identical to
  /// the serial engine. -1 (default) consults FLOWPULSE_LANES; 0/1 force
  /// serial; >= 2 shards. Scenarios the laned engine cannot shard
  /// deterministically (probabilistic faults, hybrid fidelity, background
  /// job, mitigation, dynamic model, tracing) silently fall back to serial.
  std::int32_t lanes = -1;

  std::uint64_t seed = 1;
};

/// What one run produced.
struct ScenarioResult {
  std::uint32_t iterations_completed = 0;
  bool data_valid = true;

  /// iteration → largest relative deviation any leaf reported.
  std::vector<double> per_iter_max_dev;
  /// iteration → was a new (silent) fault active while it ran?
  std::vector<std::uint8_t> iter_fault_active;
  /// (start, end) of each completed iteration.
  std::vector<std::pair<sim::Time, sim::Time>> iter_windows;

  std::vector<fp::DetectionResult> detections;  ///< every leaf × iteration check
  std::vector<fp::FlowPulseSystem::LearnedOutcome> learned;

  /// Control-plane actions the MitigationController took, in order (empty
  /// when mitigation is disabled), plus its recovery milestones.
  std::vector<ctrl::MitigationEvent> mitigation_events;
  ctrl::RecoveryTimeline recovery{};

  /// What the hybrid engine did (fidelity.enabled == false for pure packet
  /// runs, including fallbacks).
  fp::FidelityStats fidelity{};

  transport::TransportStats transport_stats{};
  net::LinkCounters fabric_counters{};
  sim::Time sim_end = sim::Time::zero();
  std::uint64_t events = 0;
  double wall_seconds = 0.0;

  /// Flight-recorder output. Empty unless a runtime level was set.
  std::vector<core::TraceEvent> trace_events;  ///< final retained window
  std::uint64_t trace_dropped = 0;             ///< ring overflow across the run
  std::vector<obs::TraceDump> trace_dumps;     ///< automatic on-alert snapshots
};

/// Builds and runs one experiment. The pieces stay accessible between
/// construction and run() so benches can customize (e.g. attach a prober
/// or a second background job).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  /// Run to completion and summarize.
  ScenarioResult run();

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  /// True when this scenario actually runs sharded (config.lanes resolved
  /// to >= 2 AND the scenario passed the deterministic-sharding gate).
  [[nodiscard]] bool laned() const { return lane_runner_ != nullptr; }
  [[nodiscard]] net::FatTree& fabric() { return *fabric_; }
  [[nodiscard]] transport::TransportLayer& transports() { return *transports_; }
  [[nodiscard]] collective::CollectiveRunner& runner() { return *runner_; }
  [[nodiscard]] fp::FlowPulseSystem& flowpulse() { return *flowpulse_; }
  /// Present iff config.mitigation.enabled and the model is fixed
  /// (kAnalytical / kSimulation).
  [[nodiscard]] ctrl::MitigationController* controller() { return controller_.get(); }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] const collective::CommSchedule& schedule() const { return schedule_; }
  [[nodiscard]] const collective::DemandMatrix& demand() const { return demand_; }

  /// The prediction FlowPulse is armed with (nullptr for kLearned and
  /// kDynamic).
  [[nodiscard]] const fp::PortLoadMap* prediction() const { return flowpulse_->prediction(); }

 private:
  void build();
  [[nodiscard]] fp::PortLoadMap analytical_prediction() const;
  [[nodiscard]] fp::PortLoadMap simulation_prediction() const;
  void apply_new_faults();
  [[nodiscard]] bool fault_active_during(sim::Time start, sim::Time end) const;
  void maybe_dump(const fp::DetectionResult& result);
  void run_hybrid();
  /// A configured silent fault on a link routing still uses is active in
  /// [start, end) — the hybrid engine's fault-guard demotion test.
  [[nodiscard]] bool unquarantined_fault_during(sim::Time start, sim::Time end) const;

  ScenarioConfig config_;
  collective::CommSchedule schedule_;
  collective::DemandMatrix demand_;
  std::unique_ptr<sim::Simulator> sim_;
  /// Extra lanes (lane 1..n-1) of a sharded run; sim_ is always lane 0.
  std::vector<std::unique_ptr<sim::Simulator>> extra_lanes_;
  std::unique_ptr<sim::LaneRunner> lane_runner_;
  std::unique_ptr<net::FatTree> fabric_;
  std::unique_ptr<transport::TransportLayer> transports_;
  std::unique_ptr<collective::CollectiveRunner> runner_;
  std::unique_ptr<collective::CollectiveRunner> background_runner_;
  std::unique_ptr<fp::FlowPulseSystem> flowpulse_;
  std::unique_ptr<ctrl::MitigationController> controller_;
  std::unique_ptr<fp::FastForwardModel> fastforward_;
  bool hybrid_active_ = false;
  fp::FidelityStats fidelity_stats_;
  std::vector<std::pair<sim::Time, sim::Time>> iter_windows_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<obs::TraceDump> trace_dumps_;
  std::size_t traced_mitigations_ = 0;
};

/// The ring placement used throughout the paper's evaluation: one rank per
/// host, rank i on host i (with one host per leaf this makes every leaf a
/// single non-local sender and receiver — the jitter-robust condition §5.1).
[[nodiscard]] std::vector<net::HostId> all_hosts_ring(const net::TopologyInfo& info);

/// Build the schedule for a ScenarioConfig over all hosts of the topology.
[[nodiscard]] collective::CommSchedule make_schedule(collective::CollectiveKind kind,
                                                     const net::TopologyInfo& shape,
                                                     core::Bytes total_bytes);

}  // namespace flowpulse::exp
