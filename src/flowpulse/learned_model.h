#pragma once

#include <cstdint>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "net/types.h"

namespace flowpulse::fp {

/// Learning-based load prediction for one leaf (paper §5.2 "Learning").
///
/// The expected per-port load is simply measured over the first
/// `learn_iterations` of the collective. The caveat the paper highlights
/// (Fig. 3): a *transient* fault present during learning poisons the
/// baseline; when it heals, the traffic re-balances more evenly across the
/// ports. The model recognizes that signature — deviating ports move
/// *upward* and the dispersion (coefficient of variation) across active
/// ports shrinks — and re-learns the baseline instead of alerting.
/// A new fault shows the opposite signature (a port drops, dispersion
/// grows) and is reported as an alert. A port deviates when its relative
/// deviation from the baseline exceeds `threshold`, the system's detection
/// threshold (SystemConfig::threshold).
class LearnedModel {
 public:
  struct Config {
    std::uint32_t learn_iterations = 3;
  };

  enum class Phase : std::uint8_t { kLearning, kMonitoring };

  struct Outcome {
    enum class Kind : std::uint8_t {
      kLearning,    ///< sample absorbed into the (re-)baseline
      kOk,          ///< within threshold of the baseline
      kAlert,       ///< deviation consistent with a new fault
      kRebaseline,  ///< deviation consistent with a healed fault; re-learning
    };
    Kind kind = Kind::kOk;
    double max_rel_dev = 0.0;
    std::vector<net::UplinkIndex> deviating_ports;
    /// For kAlert: localization of each deviating port from the learned
    /// per-sender baselines (same Fig. 4 logic as the fixed models).
    std::vector<Localization> localizations;
  };

  LearnedModel(std::uint32_t uplinks, Config config, double threshold);

  /// Feed one finalized iteration; returns what the model concluded.
  Outcome observe(const IterationRecord& record);

  [[nodiscard]] Phase phase() const { return phase_; }
  [[nodiscard]] const std::vector<double>& baseline() const { return baseline_; }
  /// Learned per-sender expectation of port `u` (empty before the first
  /// baseline is complete).
  [[nodiscard]] const std::vector<double>& baseline_by_src(net::UplinkIndex u) const {
    return baseline_by_src_[u.v()];
  }
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
  std::vector<double> sum_;       // accumulating learning samples
  std::vector<std::vector<double>> sum_by_src_;  // [uplink][src leaf]
  std::vector<double> baseline_;  // per-uplink expected bytes
  std::vector<std::vector<double>> baseline_by_src_;
  double baseline_cv_ = 0.0;
  std::uint32_t rebaseline_count_ = 0;
};

}  // namespace flowpulse::fp
