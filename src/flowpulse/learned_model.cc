#include "flowpulse/learned_model.h"

#include <cmath>
#include <limits>

namespace flowpulse::fp {
namespace {

// Smallest non-zero load (0 when every port is silent).
double min_active(const std::vector<double>& loads) {
  double m = std::numeric_limits<double>::infinity();
  for (const double x : loads) {
    if (x > 0.0 && x < m) m = x;
  }
  return std::isinf(m) ? 0.0 : m;
}

}  // namespace

LearnedModel::LearnedModel(std::uint32_t uplinks, Config config, double threshold)
    : uplinks_{uplinks}, config_{config}, threshold_{threshold} {
  reset_learning();
}

void LearnedModel::reset_learning() {
  phase_ = Phase::kLearning;
  samples_ = 0;
  sum_.assign(uplinks_, PortLoad{});
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
    PortLoad& sum = sum_[u];
    const std::vector<double>& by_src = record.by_src[u];
    sum.total += record.bytes[u];
    sum.by_src_leaf.resize(by_src.size(), 0.0);
    for (std::size_t s = 0; s < by_src.size(); ++s) sum.by_src_leaf[s] += by_src[s];
  }
  if (++samples_ < config_.learn_iterations) return;
  const double n = static_cast<double>(samples_);
  baseline_ = sum_;
  std::vector<double> totals;
  totals.reserve(uplinks_);
  for (PortLoad& load : baseline_) {
    load.total /= n;
    for (double& v : load.by_src_leaf) v /= n;
    totals.push_back(load.total);
  }
  baseline_cv_ = dispersion(totals);
  baseline_floor_ = min_active(totals);
  phase_ = Phase::kMonitoring;
}

DetectionResult LearnedModel::observe(const IterationRecord& record) {
  if (phase_ == Phase::kLearning) {
    absorb_sample(record);
    DetectionResult learning;
    learning.leaf = record.leaf;
    learning.iteration = record.iteration;
    learning.unjudged = "learning";
    return learning;
  }

  DetectionResult result = evaluate_record(baseline_, threshold_, record);
  if (!result.faulty()) return result;

  // Healing signature (Fig. 3): the load re-balances *more evenly* than the
  // fault-poisoned baseline, and the weakest active port improved — i.e. no
  // new hole appeared. A new fault shows the opposite: a port sinks below
  // anything in the baseline and dispersion grows.
  // Re-baseline when dispersion shrinks by at least this factor while all
  // deviating ports gained traffic.
  constexpr double kHealingCvMargin = 0.05;
  const bool weakest_improved = min_active(record.bytes) >= baseline_floor_ * (1.0 - threshold_);
  if (weakest_improved && dispersion(record.bytes) < baseline_cv_ * (1.0 - kHealingCvMargin)) {
    result.alerts.clear();
    result.unjudged = "re-learning";
    ++rebaseline_count_;
    reset_learning();
    // The healed iteration itself is the first sample of the new baseline.
    absorb_sample(record);
  }
  return result;
}

}  // namespace flowpulse::fp
