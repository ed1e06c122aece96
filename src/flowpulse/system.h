#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/learned_model.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "flowpulse/streaming_detector.h"
#include "net/switch.h"

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
  /// Relative deviation beyond which a port alerts (paper's default, 1%).
  /// Judges kThreshold and kLearned; kStreaming has its own rule.
  double threshold = 0.01;
  std::uint16_t job = 0;  ///< which tagged collective to measure
  ModelKind model = ModelKind::kAnalytical;
  LearnedModel::Config learned{};
  DetectorKind detector = DetectorKind::kThreshold;
};

/// The deployed FlowPulse system over one monitored tier: one PortMonitor
/// per row (a monitored switch), each independently comparing its finalized
/// iterations against the model — no inter-switch coordination, exactly as
/// in the paper.
///
/// For kAnalytical / kSimulation, install the prediction with
/// set_prediction() before the run; every finalized iteration is judged
/// against it with evaluate_record(). kDynamic judges against the
/// provider's prediction, and kLearned against each row's LearnedModel
/// baseline, with the same rule at the same threshold. Every result, judged
/// or unjudged (DetectionResult::unjudged), leaves through one tail:
/// results(), the trace and the alert hook.
///
/// The detection core needs only the tier's shape, so any substrate can
/// feed it:
///  * simulated switches: attach() puts a row's monitor on a switch's
///    ingress tap, so it finalizes iterations as simulated packets arrive.
///    exp::Scenario attaches every leaf of a 2-level fabric, and
///    ThreeLevelFlowPulse the leaves and pod-spines of a 3-level one. An
///    attached row is traced on its switch's simulator and, in audit
///    builds, reconciled at flush() against the switch;
///  * records from elsewhere — `flowpulsed`'s wire protocol over
///    Tier::leaves_of(topology), replay files, the hybrid engine's
///    fast-forwarded iterations — enter through ingest(). Rows without a
///    switch are neither traced nor reconciled.
class FlowPulseSystem {
 public:
  FlowPulseSystem(const Tier& tier, SystemConfig config);

  /// Install `row`'s monitor on `sw`'s ingress tap; `sw` must outlive this
  /// system.
  void attach(net::LeafId row, net::Switch& sw) { monitors_[row.v()]->attach(sw); }

  // Monitor finalize hooks point back at this system.
  FlowPulseSystem(const FlowPulseSystem&) = delete;
  FlowPulseSystem& operator=(const FlowPulseSystem&) = delete;

  /// Install the per-port prediction (fixed-model modes).
  void set_prediction(PortLoadMap prediction);
  /// The installed prediction; nullptr until set_prediction().
  [[nodiscard]] const PortLoadMap* prediction() const {
    return prediction_ ? &*prediction_ : nullptr;
  }

  /// kDynamic mode: called at evaluation time with the iteration number;
  /// returns that iteration's prediction (nullptr → skip the iteration,
  /// e.g. the demand is not known yet). The pointee must stay alive until
  /// the next finalize.
  using PredictionProvider = std::function<const PortLoadMap*(net::IterIndex iteration)>;
  void set_prediction_provider(PredictionProvider provider) {
    provider_ = std::move(provider);
  }

  /// Observer of every (leaf × iteration) result, fired eagerly as
  /// monitors finalize iterations mid-run — the subscription point for
  /// closed-loop consumers (ctrl::MitigationController). Fires for clean
  /// results too: probation/debounce logic needs to see iterations that did
  /// NOT alert. The hook may re-arm the system via set_prediction()
  /// (re-baselining); the result it received stays valid for the duration
  /// of the call.
  using AlertHook = std::function<void(const DetectionResult&)>;
  void set_alert_hook(AlertHook hook) { alert_hook_ = std::move(hook); }

  /// Judge only at flush(). Serves laned 2-level runs and both tiers of
  /// ThreeLevelFlowPulse: monitors may finalize on their own event lanes,
  /// where eager evaluation would race on results_ and collect them in
  /// lane-scheduling order. With deferred evaluation on, finalize hooks do
  /// nothing during the run (each monitor only appends to its own history)
  /// and flush() — called on the coordinator after the lanes drain —
  /// replays every new record through the normal pipeline in canonical
  /// (iteration, row) order, independent of lane count. Records flushed
  /// before a prediction is installed are dropped, so arm the system first.
  void set_deferred_evaluation(bool on) { deferred_ = on; }

  /// Finalize the in-flight iteration at every row (end of training run).
  void flush();

  /// Feed one synthesized (or replayed) finalized iteration through the
  /// exact pipeline a PortMonitor finalize takes — evaluation, result
  /// collection, alert hook. The hybrid-fidelity engine injects flow-level
  /// fast-forwarded iterations here; the monitors never see them.
  void ingest(const IterationRecord& record) { on_finalized(record); }

  /// Every (leaf × iteration) result, in finalize order.
  [[nodiscard]] const std::vector<DetectionResult>& results() const { return results_; }
  /// Drop collected results. Streaming consumers (the daemon's verdict
  /// accumulator subscribes via the alert hook) call this after every
  /// ingest so detection memory stays flat over unbounded counter streams.
  void clear_results() { results_.clear(); }

  /// Largest relative deviation seen at iteration `i` across all leaves;
  /// the raw statistic threshold sweeps (ROC) classify on.
  [[nodiscard]] std::vector<double> per_iteration_max_dev() const;

  /// Alerts (ports beyond threshold) across all leaves and iterations.
  [[nodiscard]] std::vector<DetectionResult> faulty_results() const;

  [[nodiscard]] PortMonitor& monitor(net::LeafId leaf) { return *monitors_[leaf.v()]; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  void on_finalized(const IterationRecord& record);
  /// Every result's one way out: collect it, trace it, call the alert hook.
  void publish(DetectionResult result);
  void trace_result(const DetectionResult& r);

  Tier tier_;
  SystemConfig config_;
  std::vector<std::unique_ptr<PortMonitor>> monitors_;
  std::optional<PortLoadMap> prediction_;
  std::vector<std::unique_ptr<StreamingDetector>> streaming_;
  PredictionProvider provider_;
  AlertHook alert_hook_;
  std::vector<std::unique_ptr<LearnedModel>> learned_;
  std::vector<DetectionResult> results_;
  bool deferred_ = false;
  /// Per-row count of history records already replayed by deferred flushes.
  std::vector<std::size_t> replayed_;
};

}  // namespace flowpulse::fp
