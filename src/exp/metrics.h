#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "exp/scenario.h"

namespace flowpulse::exp {

/// Classification counts over a set of (iteration, deviation, truth)
/// samples at a given threshold. The classifier is the paper's §5.3 rule:
/// an iteration is declared faulty when any port's relative deviation
/// exceeds the threshold.
struct Rates {
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;

  // Zero-denominator rates are undefined, not zero: a sweep with no
  // negative (or no positive) samples must not read as a perfect 0% rate.
  // NaN propagates loudly through downstream math and renders as "n/a" in
  // tables (exp::fmt / exp::pct).
  [[nodiscard]] double fpr() const {
    const std::uint64_t n = fp + tn;
    return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                  : static_cast<double>(fp) / static_cast<double>(n);
  }
  [[nodiscard]] double fnr() const {
    const std::uint64_t n = fn + tp;
    return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                  : static_cast<double>(fn) / static_cast<double>(n);
  }

  Rates& operator+=(const Rates& o) {
    tp += o.tp;
    fp += o.fp;
    tn += o.tn;
    fn += o.fn;
    return *this;
  }
};

/// Deviation/truth samples of one run, one entry per evaluated iteration.
struct TrialSamples {
  std::vector<double> dev;
  std::vector<std::uint8_t> truth;
};

/// Extract per-iteration samples from a scenario result, skipping the first
/// `skip` iterations (model warm-up / learning phase).
[[nodiscard]] TrialSamples samples_from(const ScenarioResult& result, std::uint32_t skip = 0);

/// Classify all samples at `threshold`.
[[nodiscard]] Rates classify(const std::vector<TrialSamples>& trials, double threshold);

/// One ROC point per threshold.
struct RocPoint {
  double threshold = 0.0;
  Rates rates;
};
[[nodiscard]] std::vector<RocPoint> roc_sweep(const std::vector<TrialSamples>& trials,
                                              const std::vector<double>& thresholds);

/// The largest deviation observed across all clean-trial iterations — the
/// noise floor a calibrated deployment would set its threshold just above
/// (§6: "the threshold is set empirically in a given network when
/// calibrating the system"). NaN when there are no clean samples at all:
/// a floor of 0.0 would silently calibrate the threshold to zero.
[[nodiscard]] double noise_floor(const std::vector<TrialSamples>& clean_trials);

}  // namespace flowpulse::exp
