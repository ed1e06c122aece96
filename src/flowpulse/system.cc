#include "flowpulse/system.h"

#include <algorithm>

namespace flowpulse::fp {

FlowPulseSystem::FlowPulseSystem(net::FatTree& fabric, SystemConfig config)
    : FlowPulseSystem(fabric.info(), config) {
  fabric_ = &fabric;
  for (const net::LeafId l : core::ids<net::LeafId>(topo_.leaves)) {
    monitors_[l.v()]->attach(fabric.leaf(l));
  }
}

FlowPulseSystem::FlowPulseSystem(const net::TopologyInfo& topo, SystemConfig config)
    : topo_{topo}, config_{config} {
  monitors_.reserve(topo_.leaves);
  for (const net::LeafId l : core::ids<net::LeafId>(topo_.leaves)) {
    monitors_.push_back(std::make_unique<PortMonitor>(l, topo_, config_.job));
    monitors_.back()->set_finalize_hook([this](const IterationRecord& r) {
      // Deferred (sharded-lane) mode: the monitor just recorded into its
      // per-lane history; evaluation waits for the coordinator's flush().
      if (!deferred_) on_finalized(r);
    });
    if (config_.model == ModelKind::kLearned) {
      learned_.push_back(
          std::make_unique<LearnedModel>(topo_.uplinks_per_leaf(), config_.learned));
    }
    if (config_.detector == DetectorKind::kStreaming) {
      streaming_.push_back(std::make_unique<StreamingDetector>(
          l, topo_.uplinks_per_leaf(), topo_.leaves, config_.streaming));
    }
  }
}

void FlowPulseSystem::set_prediction(PortLoadMap prediction) {
  // Streaming detectors re-seed their EWMA baselines from each installed
  // prediction (arm and every controller re-baseline alike), so a routing
  // change does not register as a deviation.
  for (auto& s : streaming_) s->seed(prediction);
  detector_ = std::make_unique<Detector>(std::move(prediction), config_.threshold);
}

void FlowPulseSystem::on_finalized(const IterationRecord& record) {
#if FP_TRACE_ENABLED
  if (fabric_ != nullptr) {
    // Hoisted out of the macro argument list: simulator() is non-const, and
    // FP_TRACE arguments must stay side-effect-free across build variants
    // (fplint variant-divergence).
    sim::Simulator& trace_sim = fabric_->simulator();
    FP_TRACE(trace_sim, kIteration, "", record.leaf.v(), 0, record.iteration.v(), 0.0,
             "finalized");
  }
#endif
  if (config_.model == ModelKind::kLearned) {
    learned_outcomes_.push_back(LearnedOutcome{record.leaf, record.iteration,
                                               learned_[record.leaf.v()]->observe(record)});
    return;
  }
  if (config_.model == ModelKind::kDynamic) {
    if (provider_) {
      if (const PortLoadMap* prediction = provider_(record.iteration)) {
        results_.push_back(evaluate_record(*prediction, config_.threshold, record));
        trace_result(results_.back());
        if (alert_hook_) alert_hook_(results_.back());
      }
    }
    return;
  }
  if (config_.detector == DetectorKind::kStreaming) {
    results_.push_back(streaming_[record.leaf.v()]->observe(record));
    trace_result(results_.back());
    if (alert_hook_) alert_hook_(results_.back());
    return;
  }
  if (detector_ != nullptr) {
    results_.push_back(detector_->evaluate(record));
    trace_result(results_.back());
    // The hook may swap the detector (re-baseline); evaluation is done.
    if (alert_hook_) alert_hook_(results_.back());
  }
}

// One kDetectorFlag + one kLocalization event per alerted port. Separate
// events on purpose: the flag is the raw deviation signal, the localization
// is the verdict layered on top, and the timeline should show both.
void FlowPulseSystem::trace_result([[maybe_unused]] const DetectionResult& r) {
#if FP_TRACE_ENABLED
  if (fabric_ == nullptr) return;  // tracing is simulator-bound
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
  sim::Simulator& sim = fabric_->simulator();
  for (const PortAlert& a : r.alerts) {
    FP_TRACE(sim, kDetectorFlag, "", r.leaf.v(), a.uplink.v(), r.iteration.v(), a.rel_dev,
             a.observed < a.predicted ? "shortfall" : "surplus");
    FP_TRACE(sim, kLocalization, "", r.leaf.v(), a.uplink.v(), r.iteration.v(), a.rel_dev,
             verdict_name(a.localization.verdict));
  }
#endif
}

void FlowPulseSystem::flush() {
  for (auto& m : monitors_) m->flush();
  if (deferred_) {
    for (const IterationRecord* r : take_new_records(monitors_, replayed_)) on_finalized(*r);
  }
#if FP_AUDIT_ENABLED
  // Monitor-vs-switch reconciliation: each monitor's per-port byte ledger
  // must equal the delivering downlink's independent count of tagged
  // collective data bytes for this job — every monitored packet was really
  // delivered, and every delivered tagged packet was monitored. Only
  // meaningful with an attached fabric: the transport-agnostic mode has no
  // switch-side ledger to reconcile against.
  if (fabric_ == nullptr) return;
  const net::TopologyInfo& info = topo_;
  for (const net::LeafId l : core::ids<net::LeafId>(info.leaves)) {
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(info.uplinks_per_leaf())) {
      const std::uint64_t monitored = monitors_[l.v()]->audit_bytes(u);
      const std::uint64_t delivered =
          fabric_->audit_downlink_tagged_bytes(l, u, config_.job).v();
      FP_AUDIT(monitored == delivered, "monitor-reconciliation",
               "leaf" + std::to_string(l.v()) + ".up" + std::to_string(u.v()), config_.job, 0,
               "monitor counted " + std::to_string(monitored) +
                   " tagged bytes but the switch delivered " + std::to_string(delivered));
    }
  }
#endif
}

std::vector<double> FlowPulseSystem::per_iteration_max_dev() const {
  std::vector<double> devs;
  auto note = [&devs](net::IterIndex iteration, double dev) {
    if (iteration.v() >= devs.size()) devs.resize(iteration.v() + 1, 0.0);
    devs[iteration.v()] = std::max(devs[iteration.v()], dev);
  };
  for (const DetectionResult& r : results_) note(r.iteration, r.max_rel_dev);
  for (const LearnedOutcome& o : learned_outcomes_) note(o.iteration, o.outcome.max_rel_dev);
  return devs;
}

std::vector<DetectionResult> FlowPulseSystem::faulty_results() const {
  std::vector<DetectionResult> faulty;
  std::copy_if(results_.begin(), results_.end(), std::back_inserter(faulty),
               [](const DetectionResult& r) { return r.faulty(); });
  return faulty;
}

}  // namespace flowpulse::fp
