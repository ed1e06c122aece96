#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/learned_model.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "flowpulse/streaming_detector.h"
#include "net/fat_tree.h"

namespace flowpulse::fp {

/// How the per-link load model is obtained (paper §5.2).
enum class ModelKind : std::uint8_t {
  kAnalytical,  ///< closed-form d/(s−f) from the demand matrix
  kSimulation,  ///< taken from a fault-free(-of-new-faults) simulation run
  kLearned,     ///< measured during the first training iterations
  kDynamic,     ///< per-iteration prediction from a provider callback —
                ///< the §7 extension for collectives whose demand matrix
                ///< changes every iteration (e.g. expert-parallel AlltoAll)
};

/// Which evaluation engine judges finalized iterations (fixed-model modes).
enum class DetectorKind : std::uint8_t {
  kThreshold,  ///< paper's detector: compare against the installed prediction
  kStreaming,  ///< O(1) EWMA/z-score streaming detector (StreamingDetector)
};

struct SystemConfig {
  double threshold = 0.01;  ///< paper's default detection threshold (1%)
  std::uint16_t job = 0;    ///< which tagged collective to measure
  ModelKind model = ModelKind::kAnalytical;
  LearnedModel::Config learned{};
  DetectorKind detector = DetectorKind::kThreshold;
};

/// The deployed FlowPulse system: one PortMonitor per leaf switch, each
/// independently comparing its finalized iterations against the model —
/// no inter-switch coordination, exactly as in the paper.
///
/// For kAnalytical / kSimulation, install the prediction with
/// set_prediction() before the run; every finalized iteration is evaluated
/// eagerly and collected in results(). For kLearned, each leaf owns a
/// LearnedModel whose outcomes are collected in learned_outcomes().
///
/// Two deployments share this class:
///  * simulator-attached (FatTree ctor): monitors tap every leaf switch's
///    spine ingress and finalize iterations as simulated packets arrive;
///  * transport-agnostic (TopologyInfo ctor): no fabric, no simulator —
///    finalized IterationRecords arrive solely through ingest(). This is
///    what `flowpulsed` runs: the detection core needs only the minimal
///    topology view (leaf count, uplinks per leaf, spine_of), so any
///    substrate — simulator, wire protocol, replay file — can feed it.
class FlowPulseSystem {
 public:
  FlowPulseSystem(net::FatTree& fabric, SystemConfig config);

  /// Transport-agnostic deployment: detection over a bare topology view.
  /// Monitors exist but are not attached to switches; ingest() is the only
  /// input path, and tracing/audit (simulator-bound) are disabled.
  FlowPulseSystem(const net::TopologyInfo& topo, SystemConfig config);

  /// Install the per-port prediction (fixed-model modes).
  void set_prediction(PortLoadMap prediction);

  /// kDynamic mode: called at evaluation time with the iteration number;
  /// returns that iteration's prediction (nullptr → skip the iteration,
  /// e.g. the demand is not known yet). The pointee must stay alive until
  /// the next finalize.
  using PredictionProvider = std::function<const PortLoadMap*(net::IterIndex iteration)>;
  void set_prediction_provider(PredictionProvider provider) {
    provider_ = std::move(provider);
  }

  /// Observer of every evaluated (leaf × iteration) check, fired eagerly as
  /// monitors finalize iterations mid-run — the subscription point for
  /// closed-loop consumers (ctrl::MitigationController). Fires for clean
  /// results too: probation/debounce logic needs to see iterations that did
  /// NOT alert. Not invoked in kLearned mode (no DetectionResult there).
  /// The hook may re-arm the system via set_prediction() (re-baselining);
  /// the result it received stays valid for the duration of the call.
  using AlertHook = std::function<void(const DetectionResult&)>;
  void set_alert_hook(AlertHook hook) { alert_hook_ = std::move(hook); }

  /// Sharded-lane mode: monitors finalize on their own event lanes, so the
  /// eager per-finalize evaluation path would race on results_ and collect
  /// them in lane-scheduling order. With deferred evaluation on, finalize
  /// hooks do nothing during the run (each monitor only appends to its own
  /// per-lane history) and flush() — called on the coordinator after the
  /// lanes drain — replays every new record through the normal pipeline in
  /// canonical (iteration, leaf) order, independent of lane count.
  void set_deferred_evaluation(bool on) { deferred_ = on; }

  /// Finalize the in-flight iteration at every leaf (end of training run).
  void flush();

  /// Feed one synthesized (or replayed) finalized iteration through the
  /// exact pipeline a PortMonitor finalize takes — evaluation, result
  /// collection, alert hook. The hybrid-fidelity engine injects flow-level
  /// fast-forwarded iterations here; the monitors never see them.
  void ingest(const IterationRecord& record) { on_finalized(record); }

  /// Every evaluated (leaf × iteration) check, in finalize order.
  [[nodiscard]] const std::vector<DetectionResult>& results() const { return results_; }
  /// Drop collected results. Streaming consumers (the daemon's verdict
  /// accumulator subscribes via the alert hook) call this after every
  /// ingest so detection memory stays flat over unbounded counter streams.
  void clear_results() { results_.clear(); }
  /// Learned-model outcomes (kLearned mode), in finalize order.
  struct LearnedOutcome {
    net::LeafId leaf;
    net::IterIndex iteration;
    LearnedModel::Outcome outcome;
  };
  [[nodiscard]] const std::vector<LearnedOutcome>& learned_outcomes() const {
    return learned_outcomes_;
  }

  /// Largest relative deviation seen at iteration `i` across all leaves;
  /// the raw statistic threshold sweeps (ROC) classify on.
  [[nodiscard]] std::vector<double> per_iteration_max_dev() const;

  /// Alerts (ports beyond threshold) across all leaves and iterations.
  [[nodiscard]] std::vector<DetectionResult> faulty_results() const;

  [[nodiscard]] PortMonitor& monitor(net::LeafId leaf) { return *monitors_[leaf.v()]; }
  [[nodiscard]] LearnedModel& learned_model(net::LeafId leaf) { return *learned_[leaf.v()]; }
  [[nodiscard]] const net::TopologyInfo& topology() const { return topo_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] bool has_prediction() const { return detector_ != nullptr; }
  [[nodiscard]] const Detector& detector() const { return *detector_; }
  /// kStreaming only: the per-leaf streaming detector.
  [[nodiscard]] StreamingDetector& streaming_detector(net::LeafId leaf) {
    return *streaming_[leaf.v()];
  }

 private:
  void on_finalized(const IterationRecord& record);
  void trace_result(const DetectionResult& r);

  net::FatTree* fabric_ = nullptr;  ///< null in the transport-agnostic mode
  net::TopologyInfo topo_;
  SystemConfig config_;
  std::vector<std::unique_ptr<PortMonitor>> monitors_;
  std::unique_ptr<Detector> detector_;
  std::vector<std::unique_ptr<StreamingDetector>> streaming_;
  PredictionProvider provider_;
  AlertHook alert_hook_;
  std::vector<std::unique_ptr<LearnedModel>> learned_;
  std::vector<DetectionResult> results_;
  std::vector<LearnedOutcome> learned_outcomes_;
  bool deferred_ = false;
  /// Per-leaf count of history records already replayed by deferred flushes.
  std::vector<std::size_t> replayed_;
};

}  // namespace flowpulse::fp
