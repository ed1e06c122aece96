#pragma once

#include <cstdint>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"

namespace flowpulse::fp {

/// Learning-based load model for one row (paper §5.2 "Learning").
///
/// The expected load of each port, one PortLoad per port (total and per
/// sender), is the mean of the row's first `learn_iterations` records.
/// Later records are judged against that baseline by evaluate_record at
/// `threshold`, the system's detection threshold (SystemConfig::threshold),
/// exactly as the fixed models' predictions are. The caveat the paper
/// highlights (Fig. 3): a *transient* fault present during learning poisons
/// the baseline; when it heals, the traffic re-balances more evenly across
/// the ports. The model recognizes that signature — deviating ports move
/// *upward* and the dispersion (coefficient of variation) across active
/// ports shrinks — and re-learns the baseline instead of alerting. A new
/// fault shows the opposite signature (a port drops, dispersion grows) and
/// keeps its alerts.
class LearnedModel {
 public:
  struct Config {
    std::uint32_t learn_iterations = 3;
  };

  enum class Phase : std::uint8_t { kLearning, kMonitoring };

  LearnedModel(std::uint32_t uplinks, Config config, double threshold);

  /// Feed one finalized iteration. A learning iteration is returned
  /// unjudged "learning" (max_rel_dev 0); one that shows the healing
  /// signature is returned unjudged "re-learning", its alerts cleared and
  /// its deviation kept, and starts the new baseline.
  [[nodiscard]] DetectionResult observe(const IterationRecord& record);

  [[nodiscard]] Phase phase() const { return phase_; }
  /// The learned expected load of each port (empty before the first
  /// baseline is complete).
  [[nodiscard]] const std::vector<PortLoad>& baseline() const { return baseline_; }
  [[nodiscard]] std::uint32_t rebaseline_count() const { return rebaseline_count_; }

  /// Coefficient of variation across ports with non-zero baseline traffic.
  [[nodiscard]] static double dispersion(const std::vector<double>& loads);

 private:
  void reset_learning();
  void absorb_sample(const IterationRecord& record);

  std::uint32_t uplinks_;
  Config config_;
  double threshold_;
  Phase phase_ = Phase::kLearning;
  std::uint32_t samples_ = 0;
  std::vector<PortLoad> sum_;       ///< accumulating learning samples
  std::vector<PortLoad> baseline_;  ///< per-port expected load
  double baseline_cv_ = 0.0;        ///< dispersion of the baseline totals
  double baseline_floor_ = 0.0;     ///< smallest active baseline total
  std::uint32_t rebaseline_count_ = 0;
};

}  // namespace flowpulse::fp
