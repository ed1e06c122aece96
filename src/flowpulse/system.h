#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
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

/// Which rule judges each port against its row's baseline, under every
/// load model (RowBaseline).
enum class DetectorKind : std::uint8_t {
  kThreshold,  ///< paper's detector: relative deviation beyond the threshold
  kStreaming,  ///< O(1) z-rule against the baseline's EWMA mean and spread
};

struct SystemConfig {
  /// Relative deviation beyond which a port alerts under kThreshold (the
  /// paper's default, 1%), whatever the model.
  double threshold = 0.01;
  std::uint16_t job = 0;  ///< which tagged collective to measure
  ModelKind model = ModelKind::kAnalytical;
  /// kLearned: how many records each learned baseline averages.
  std::uint32_t learn_iterations = 3;
  DetectorKind detector = DetectorKind::kThreshold;
};

/// One monitored row's baseline and the rule that judges it. Per port it
/// keeps the expected PortLoad (total and per sender), its spread (an EWMA
/// variance), its sample count and one phase: the closed (μ, σ², n, q)
/// state of a streaming baseline. observe() allocates nothing but its
/// result once the per-sender loads exist, so state_bytes() stays constant
/// over arbitrarily long runs.
///
/// The load model only decides how the baseline is set:
///  * install(): a prediction (analytical, simulation, the controller's
///    re-baseline, the daemon's PREDICT, kDynamic's per-iteration one);
///  * kLearned: the mean of the row's first `learn_iterations` records,
///    re-learned when Fig. 3's healing rule fires (see observe());
///  * otherwise, under the z-rule with nothing installed: an EWMA warm-up
///    over kWarmupIterations records.
/// A record that finds the row learning is returned unjudged "learning",
/// with max_rel_dev 0.
///
/// SystemConfig::detector picks the rule applied to each port, and every
/// alert is localized against the baseline's per-sender loads:
///  * kThreshold alerts beyond SystemConfig::threshold and never changes the
///    baseline, so an installed prediction is judged in place, not copied;
///  * kStreaming (the z-rule) alerts when the port lies more than
///    kZThreshold sigmas and kMinRelDev away. It copies an installed
///    prediction with the spread reset, folds each passing port into the
///    EWMA (West's recursion: diff = x − μ; incr = α·diff; μ += incr;
///    σ² = (1−α)·(σ² + diff·incr)) and holds each alerting one, so a
///    persistent fault cannot poison its own baseline.
class RowBaseline {
 public:
  /// EWMA weight of the newest sample, for mean and variance alike.
  static constexpr double kAlpha = 0.25;
  /// Records the z-rule's warm-up absorbs when nothing is installed.
  static constexpr std::uint32_t kWarmupIterations = 3;
  /// The z-rule alerts when |observed − mean| exceeds this many sigmas...
  static constexpr double kZThreshold = 4.0;
  /// ...AND this relative deviation (keeps a near-zero variance estimate
  /// from flagging sub-noise wiggles). It also bounds the z-rule's
  /// per-sender localization and healing check.
  static constexpr double kMinRelDev = 0.005;
  /// Variance floor, as a fraction of the mean: sigma >= kVarFloorRel·mean.
  static constexpr double kVarFloorRel = 1e-3;

  enum class Phase : std::uint8_t {
    kLearning,  ///< no baseline yet: the learned mean or the EWMA warm-up
    kTracking,  ///< judged against the baseline
    kHolding,   ///< the z-rule alerted: statistics held until it passes
  };

  /// A row of `ports` ports judged and learned as `config` says (its
  /// threshold, model, learn_iterations and detector).
  RowBaseline(std::uint32_t ports, const SystemConfig& config)
      : config_{config}, expected_(ports), stats_(ports) {}

  /// Install the row's expected loads, one per port. The z-rule copies
  /// them with the spread reset; the threshold rule judges them in place,
  /// so they must stay alive and unchanged until the next install.
  void install(std::span<const PortLoad> expected);

  /// False only while a threshold rule that does not learn waits for its
  /// first install(); observe() may be called otherwise.
  [[nodiscard]] bool ready() const {
    return !installed_.empty() || config_.model == ModelKind::kLearned ||
           config_.detector == DetectorKind::kStreaming;
  }

  /// Judge one finalized iteration against the baseline, then update the
  /// baseline as the rule and the model say. Under kLearned, a faulty
  /// iteration that shows the healing signature (Fig. 3) is returned
  /// unjudged "re-learning", its alerts cleared and its deviation kept, and
  /// starts the new baseline: a transient fault present during learning
  /// poisons the baseline, and when it heals the load re-balances more
  /// evenly across the ports (deviating ports move up, the dispersion
  /// across active ports shrinks), while a new fault shows the opposite.
  [[nodiscard]] DetectionResult observe(const IterationRecord& record);

  /// The expected load of each port (a learned row's running sum while it
  /// learns).
  [[nodiscard]] std::span<const PortLoad> baseline() const {
    return installed_.empty() ? std::span<const PortLoad>{expected_} : installed_;
  }
  [[nodiscard]] double variance(net::UplinkIndex u) const { return stats_[u.v()].variance; }
  [[nodiscard]] Phase phase(net::UplinkIndex u) const { return stats_[u.v()].phase; }
  [[nodiscard]] std::uint32_t rebaseline_count() const { return rebaseline_count_; }

  /// Exact bytes of the row's own state (an installed view excluded).
  [[nodiscard]] std::size_t state_bytes() const;

  /// Coefficient of variation across ports with non-zero traffic.
  [[nodiscard]] static double dispersion(const std::vector<double>& loads);

 private:
  struct PortStat {
    double variance = 0.0;
    std::uint32_t samples = 0;
    Phase phase = Phase::kLearning;
  };

  [[nodiscard]] std::uint32_t ports() const { return static_cast<std::uint32_t>(stats_.size()); }
  void start_learning();
  void learn(const IterationRecord& record);
  /// Fold port u's observation into its EWMA mean, variance and per-sender
  /// means.
  void fold(net::UplinkIndex u, const IterationRecord& record);

  SystemConfig config_;
  std::vector<PortLoad> expected_;  ///< the row's own baseline, one per port
  std::vector<PortStat> stats_;     ///< one per port
  std::span<const PortLoad> installed_;  ///< judged in place (threshold rule)
  double baseline_cv_ = 0.0;     ///< dispersion of the learned totals
  double baseline_floor_ = 0.0;  ///< smallest active learned total
  std::uint32_t rebaseline_count_ = 0;
};

/// The deployed FlowPulse system over one monitored tier: one PortMonitor
/// and one RowBaseline per row (a monitored switch), each row independently
/// comparing its finalized iterations against its own baseline — no
/// inter-switch coordination, exactly as in the paper.
///
/// For kAnalytical / kSimulation, install the prediction with
/// set_prediction() before the run. kDynamic installs the provider's
/// prediction before judging each record, and kLearned rows learn their
/// own. Whatever the model, each row applies SystemConfig::detector's rule.
/// Every result, judged or unjudged (DetectionResult::unjudged), leaves
/// through one tail: results(), the trace and the alert hook.
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

  /// Install the per-port prediction into every row (fixed-model modes,
  /// and every re-baseline).
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
  /// (iteration, row) order, independent of lane count. Under the
  /// threshold rule, records flushed before a prediction is installed are
  /// dropped (RowBaseline::ready()), so arm the system first.
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
  std::vector<RowBaseline> rows_;
  PredictionProvider provider_;
  AlertHook alert_hook_;
  std::vector<DetectionResult> results_;
  bool deferred_ = false;
  /// Per-row count of history records already replayed by deferred flushes.
  std::vector<std::size_t> replayed_;
};

}  // namespace flowpulse::fp
