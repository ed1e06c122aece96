#include "flowpulse/learned_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace flowpulse::fp {

LearnedModel::LearnedModel(std::uint32_t uplinks, Config config, double threshold)
    : uplinks_{uplinks}, config_{config}, threshold_{threshold} {
  reset_learning();
}

void LearnedModel::reset_learning() {
  phase_ = Phase::kLearning;
  samples_ = 0;
  sum_.assign(uplinks_, 0.0);
  sum_by_src_.assign(uplinks_, {});
}

double LearnedModel::dispersion(const std::vector<double>& loads) {
  double mean = 0.0;
  std::uint32_t n = 0;
  for (const double v : loads) {
    if (v > 0.0) {
      mean += v;
      ++n;
    }
  }
  if (n < 2) return 0.0;
  mean /= n;
  double var = 0.0;
  for (const double v : loads) {
    if (v > 0.0) var += (v - mean) * (v - mean);
  }
  var /= n;
  return std::sqrt(var) / mean;
}

void LearnedModel::absorb_sample(const IterationRecord& record) {
  for (std::uint32_t u = 0; u < uplinks_; ++u) {
    sum_[u] += record.bytes[u];
    if (sum_by_src_[u].size() != record.by_src[u].size()) {
      sum_by_src_[u].assign(record.by_src[u].size(), 0.0);
    }
    for (std::size_t s = 0; s < record.by_src[u].size(); ++s) {
      sum_by_src_[u][s] += record.by_src[u][s];
    }
  }
  ++samples_;
  if (samples_ >= config_.learn_iterations) {
    const double n = static_cast<double>(samples_);
    baseline_.assign(uplinks_, 0.0);
    baseline_by_src_.assign(uplinks_, {});
    for (std::uint32_t u = 0; u < uplinks_; ++u) {
      baseline_[u] = sum_[u] / n;
      baseline_by_src_[u] = sum_by_src_[u];
      for (double& v : baseline_by_src_[u]) v /= n;
    }
    baseline_cv_ = dispersion(baseline_);
    phase_ = Phase::kMonitoring;
  }
}

LearnedModel::Outcome LearnedModel::observe(const IterationRecord& record) {
  Outcome out;
  if (phase_ == Phase::kLearning) {
    absorb_sample(record);
    out.kind = Outcome::Kind::kLearning;
    return out;
  }

  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(uplinks_)) {
    const double dev = relative_deviation(record.bytes[u.v()], baseline_[u.v()]);
    out.max_rel_dev = std::max(out.max_rel_dev, dev);
    if (dev > threshold_) out.deviating_ports.push_back(u);
  }

  if (out.deviating_ports.empty()) {
    out.kind = Outcome::Kind::kOk;
    return out;
  }

  // Healing signature (Fig. 3): the load re-balances *more evenly* than the
  // fault-poisoned baseline, and the weakest active port improved — i.e. no
  // new hole appeared. A new fault shows the opposite: a port sinks below
  // anything in the baseline and dispersion grows.
  auto min_active = [](const std::vector<double>& v) {
    double m = std::numeric_limits<double>::infinity();
    for (const double x : v) {
      if (x > 0.0 && x < m) m = x;
    }
    return std::isinf(m) ? 0.0 : m;
  };
  // Re-baseline when dispersion shrinks by at least this factor while all
  // deviating ports gained traffic.
  constexpr double kHealingCvMargin = 0.05;
  const double cv_now = dispersion(record.bytes);
  const bool weakest_improved =
      min_active(record.bytes) >= min_active(baseline_) * (1.0 - threshold_);
  if (weakest_improved && cv_now < baseline_cv_ * (1.0 - kHealingCvMargin)) {
    out.kind = Outcome::Kind::kRebaseline;
    ++rebaseline_count_;
    reset_learning();
    // The healed iteration itself is the first sample of the new baseline.
    absorb_sample(record);
    return out;
  }

  out.kind = Outcome::Kind::kAlert;
  // Localize each deviating port against the learned per-sender baseline
  // (same per-sender comparison as the fixed models, Fig. 4).
  for (const net::UplinkIndex u : out.deviating_ports) {
    PortLoad learned_load{static_cast<std::uint32_t>(baseline_by_src_[u.v()].size())};
    learned_load.total = baseline_[u.v()];
    learned_load.by_src_leaf = baseline_by_src_[u.v()];
    out.localizations.push_back(localize(record, learned_load, u, threshold_));
  }
  return out;
}

}  // namespace flowpulse::fp
