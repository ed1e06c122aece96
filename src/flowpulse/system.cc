#include "flowpulse/system.h"

#include <algorithm>
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

// The z-rule on one port: `x` lies more than kZThreshold sigmas from the
// EWMA mean (sigma floored at kVarFloorRel of the mean) and more than
// kMinRelDev away relative to it.
bool z_alerts(double x, double mean, double variance, double rel) {
  const double floor = RowBaseline::kVarFloorRel * mean;
  const double sigma = std::sqrt(std::max(variance, floor * floor));
  const double diff = x - mean;
  const double z = sigma > 0.0 ? diff / sigma
                               : (diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity());
  return std::fabs(z) > RowBaseline::kZThreshold && rel > RowBaseline::kMinRelDev;
}

}  // namespace

void RowBaseline::install(std::span<const PortLoad> expected) {
  for (PortStat& st : stats_) st = PortStat{.phase = Phase::kTracking};
  if (config_.detector == DetectorKind::kThreshold) {
    installed_ = expected;
    return;
  }
  installed_ = {};
  std::copy(expected.begin(), expected.end(), expected_.begin());
}

void RowBaseline::start_learning() {
  installed_ = {};
  for (PortStat& st : stats_) st = PortStat{};
}

void RowBaseline::fold(net::UplinkIndex u, const IterationRecord& record) {
  PortLoad& mean = expected_[u.v()];
  PortStat& st = stats_[u.v()];
  const double diff = record.bytes[u.v()] - mean.total;
  const double incr = kAlpha * diff;
  mean.total += incr;
  st.variance = (1.0 - kAlpha) * (st.variance + diff * incr);
  const std::vector<double>& by_src = record.by_src[u.v()];
  for (std::size_t s = 0; s < mean.by_src_leaf.size(); ++s) {
    mean.by_src_leaf[s] += kAlpha * (by_src[s] - mean.by_src_leaf[s]);
  }
  ++st.samples;
}

void RowBaseline::learn(const IterationRecord& record) {
  const bool learned = config_.model == ModelKind::kLearned;
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(ports())) {
    PortLoad& expected = expected_[u.v()];
    PortStat& st = stats_[u.v()];
    const std::vector<double>& by_src = record.by_src[u.v()];
    if (!learned) {
      // The z-rule's in-band warm-up: the first sample seeds the EWMA.
      if (st.samples == 0) {
        expected.total = record.bytes[u.v()];
        expected.by_src_leaf.assign(by_src.begin(), by_src.end());
        ++st.samples;
      } else {
        fold(u, record);
      }
      if (st.samples >= kWarmupIterations) st.phase = Phase::kTracking;
      continue;
    }
    // The learned mean: sum the samples, divide once they are all in.
    if (st.samples == 0) {
      expected.total = 0.0;
      expected.by_src_leaf.assign(by_src.size(), 0.0);
    }
    expected.total += record.bytes[u.v()];
    for (std::size_t s = 0; s < expected.by_src_leaf.size(); ++s) {
      expected.by_src_leaf[s] += by_src[s];
    }
    ++st.samples;
  }
  if (!learned || stats_.empty() || stats_.front().samples < config_.learn_iterations) return;
  const double n = static_cast<double>(stats_.front().samples);
  std::vector<double> totals;
  totals.reserve(expected_.size());
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(ports())) {
    PortLoad& expected = expected_[u.v()];
    expected.total /= n;
    for (double& v : expected.by_src_leaf) v /= n;
    totals.push_back(expected.total);
    stats_[u.v()].phase = Phase::kTracking;
  }
  baseline_cv_ = dispersion(totals);
  baseline_floor_ = min_active(totals);
}

DetectionResult RowBaseline::observe(const IterationRecord& record) {
  DetectionResult result;
  result.leaf = record.leaf;
  result.iteration = record.iteration;
  // Every record is a sample of every port, so the ports learn in step.
  if (!stats_.empty() && stats_.front().phase == Phase::kLearning) {
    learn(record);
    result.unjudged = "learning";
    return result;
  }

  const bool z_rule = config_.detector == DetectorKind::kStreaming;
  // The rule's relative bound: what a sender must fall short by to be
  // suspected, and how far the weakest port may sink and still be healed.
  const double bound = z_rule ? kMinRelDev : config_.threshold;
  const std::span<const PortLoad> expected = baseline();
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(ports())) {
    const PortLoad& load = expected[u.v()];
    PortStat& st = stats_[u.v()];
    const double x = record.bytes[u.v()];
    const double rel = relative_deviation(x, load.total);
    result.max_rel_dev = std::max(result.max_rel_dev, rel);
    const bool alerted = z_rule ? z_alerts(x, load.total, st.variance, rel)
                                : rel > config_.threshold;
    if (alerted) {
      PortAlert& alert = result.alerts.emplace_back();
      alert.uplink = u;
      alert.observed = x;
      alert.predicted = load.total;
      alert.rel_dev = rel;
      alert.localization = localize(record, load, u, bound);
    }
    if (!z_rule) continue;  // the threshold rule never changes the baseline
    st.phase = alerted ? Phase::kHolding : Phase::kTracking;
    if (!alerted) fold(u, record);
  }
  if (config_.model != ModelKind::kLearned || !result.faulty()) return result;

  // Healing signature (Fig. 3): the load re-balances *more evenly* than the
  // fault-poisoned baseline, and the weakest active port improved — i.e. no
  // new hole appeared. A new fault shows the opposite: a port sinks below
  // anything in the baseline and dispersion grows.
  // Re-baseline when dispersion shrinks by at least this factor while all
  // deviating ports gained traffic.
  constexpr double kHealingCvMargin = 0.05;
  const bool weakest_improved = min_active(record.bytes) >= baseline_floor_ * (1.0 - bound);
  if (weakest_improved && dispersion(record.bytes) < baseline_cv_ * (1.0 - kHealingCvMargin)) {
    result.alerts.clear();
    result.unjudged = "re-learning";
    ++rebaseline_count_;
    start_learning();
    // The healed iteration itself is the first sample of the new baseline.
    learn(record);
  }
  return result;
}

std::size_t RowBaseline::state_bytes() const {
  std::size_t bytes = sizeof(*this) + expected_.capacity() * sizeof(PortLoad) +
                      stats_.capacity() * sizeof(PortStat);
  for (const PortLoad& load : expected_) bytes += load.by_src_leaf.capacity() * sizeof(double);
  return bytes;
}

double RowBaseline::dispersion(const std::vector<double>& loads) {
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

FlowPulseSystem::FlowPulseSystem(const Tier& tier, SystemConfig config)
    : tier_{tier}, config_{config}, rows_(tier.rows, RowBaseline{tier.ports, config}) {
  monitors_.reserve(tier_.rows);
  for (const net::LeafId l : core::ids<net::LeafId>(tier_.rows)) {
    monitors_.push_back(std::make_unique<PortMonitor>(l, tier_, config_.job));
    monitors_.back()->set_finalize_hook([this](const IterationRecord& r) {
      // Deferred (sharded-lane) mode: the monitor just recorded into its
      // per-lane history; evaluation waits for the coordinator's flush().
      if (!deferred_) on_finalized(r);
    });
  }
}

void FlowPulseSystem::set_prediction(PortLoadMap prediction) {
  prediction_ = std::move(prediction);
  // Every row takes its slice, on arm and on every controller re-baseline
  // alike; the z-rule re-seeds its EWMA from it, so a routing change does
  // not register as a deviation.
  for (const net::LeafId l : core::ids<net::LeafId>(tier_.rows)) {
    rows_[l.v()].install(prediction_->row(l));
  }
}

void FlowPulseSystem::on_finalized(const IterationRecord& record) {
  if (const net::Switch* sw = monitors_[record.leaf.v()]->attached_switch()) {
    // Hoisted out of the macro argument list: FP_TRACE arguments must stay
    // side-effect-free (fplint variant-divergence).
    sim::Simulator& trace_sim = sw->simulator();
    FP_TRACE(trace_sim, kIteration, "", record.leaf.v(), 0, record.iteration.v(), 0.0,
             "finalized");
  }
  RowBaseline& row = rows_[record.leaf.v()];
  if (config_.model == ModelKind::kDynamic) {
    const PortLoadMap* expected = provider_ ? provider_(record.iteration) : nullptr;
    if (expected == nullptr) return;  // this iteration's demand is not known
    row.install(expected->row(record.leaf));
  }
  if (row.ready()) publish(row.observe(record));
}

void FlowPulseSystem::publish(DetectionResult result) {
  results_.push_back(std::move(result));
  trace_result(results_.back());
  // The hook may re-arm the system (re-baseline); judging is done.
  if (alert_hook_) alert_hook_(results_.back());
}

// One kDetectorFlag + one kLocalization event per alerted port. Separate
// events on purpose: the flag is the raw deviation signal, the localization
// is the verdict layered on top, and the timeline should show both.
void FlowPulseSystem::trace_result(const DetectionResult& r) {
  const net::Switch* sw = monitors_[r.leaf.v()]->attached_switch();
  if (sw == nullptr) return;  // tracing is simulator-bound
  constexpr auto verdict_name = [](Localization::Verdict v) {
    switch (v) {
      case Localization::Verdict::kLocalLink:
        return "local-link";
      case Localization::Verdict::kRemoteLinks:
        return "remote-links";
      case Localization::Verdict::kUnknown:
        return "unknown";
    }
    return "unknown";
  };
  sim::Simulator& sim = sw->simulator();
  for (const PortAlert& a : r.alerts) {
    FP_TRACE(sim, kDetectorFlag, "", r.leaf.v(), a.uplink.v(), r.iteration.v(), a.rel_dev,
             a.observed < a.predicted ? "shortfall" : "surplus");
    FP_TRACE(sim, kLocalization, "", r.leaf.v(), a.uplink.v(), r.iteration.v(), a.rel_dev,
             verdict_name(a.localization.verdict));
  }
}

void FlowPulseSystem::flush() {
  for (auto& m : monitors_) m->flush();
  if (deferred_) {
    for (const IterationRecord* r : take_new_records(monitors_, replayed_)) on_finalized(*r);
  }
#if FP_AUDIT_ENABLED
  // Monitor-vs-switch reconciliation: each attached monitor's per-port byte
  // ledger must equal the independent count of tagged collective data bytes
  // for this job delivered by the egress port feeding the tapped port —
  // every monitored packet was really delivered, and every delivered tagged
  // packet was monitored. A row without a switch has no switch-side ledger
  // to reconcile against.
  for (const net::LeafId row : core::ids<net::LeafId>(tier_.rows)) {
    const net::Switch* sw = monitors_[row.v()]->attached_switch();
    if (sw == nullptr) continue;
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(tier_.ports)) {
      const std::uint64_t monitored = monitors_[row.v()]->audit_bytes(u);
      const std::uint64_t delivered = sw->upstream(u).audit_tagged_bytes(config_.job).v();
      FP_AUDIT(monitored == delivered, "monitor-reconciliation",
               sw->name() + ".up" + std::to_string(u.v()), config_.job, 0,
               "monitor counted " + std::to_string(monitored) +
                   " tagged bytes but the switch delivered " + std::to_string(delivered));
    }
  }
#endif
}

std::vector<double> FlowPulseSystem::per_iteration_max_dev() const {
  std::vector<double> devs;
  for (const DetectionResult& r : results_) {
    if (r.iteration.v() >= devs.size()) devs.resize(r.iteration.v() + 1, 0.0);
    devs[r.iteration.v()] = std::max(devs[r.iteration.v()], r.max_rel_dev);
  }
  return devs;
}

std::vector<DetectionResult> FlowPulseSystem::faulty_results() const {
  std::vector<DetectionResult> faulty;
  std::copy_if(results_.begin(), results_.end(), std::back_inserter(faulty),
               [](const DetectionResult& r) { return r.faulty(); });
  return faulty;
}

}  // namespace flowpulse::fp
