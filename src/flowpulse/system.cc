#include "flowpulse/system.h"

#include <algorithm>

namespace flowpulse::fp {

FlowPulseSystem::FlowPulseSystem(const Tier& tier, SystemConfig config)
    : tier_{tier}, config_{config} {
  monitors_.reserve(tier_.rows);
  for (const net::LeafId l : core::ids<net::LeafId>(tier_.rows)) {
    monitors_.push_back(std::make_unique<PortMonitor>(l, tier_, config_.job));
    monitors_.back()->set_finalize_hook([this](const IterationRecord& r) {
      // Deferred (sharded-lane) mode: the monitor just recorded into its
      // per-lane history; evaluation waits for the coordinator's flush().
      if (!deferred_) on_finalized(r);
    });
    if (config_.model == ModelKind::kLearned) {
      learned_.push_back(
          std::make_unique<LearnedModel>(tier_.ports, config_.learned, config_.threshold));
    }
    if (config_.detector == DetectorKind::kStreaming) {
      streaming_.push_back(std::make_unique<StreamingDetector>(l, tier_.ports, tier_.senders,
                                                               StreamingConfig{}));
    }
  }
}

void FlowPulseSystem::set_prediction(PortLoadMap prediction) {
  // Streaming detectors re-seed their EWMA baselines from each installed
  // prediction (arm and every controller re-baseline alike), so a routing
  // change does not register as a deviation.
  for (auto& s : streaming_) s->seed(prediction);
  prediction_ = std::move(prediction);
}

void FlowPulseSystem::on_finalized(const IterationRecord& record) {
  if (const net::Switch* sw = monitors_[record.leaf.v()]->attached_switch()) {
    // Hoisted out of the macro argument list: FP_TRACE arguments must stay
    // side-effect-free (fplint variant-divergence).
    sim::Simulator& trace_sim = sw->simulator();
    FP_TRACE(trace_sim, kIteration, "", record.leaf.v(), 0, record.iteration.v(), 0.0,
             "finalized");
  }
  if (config_.model == ModelKind::kLearned) {
    learned_outcomes_.push_back(LearnedOutcome{record.leaf, record.iteration,
                                               learned_[record.leaf.v()]->observe(record)});
    return;
  }
  const PortLoadMap* expected = prediction();
  if (config_.model == ModelKind::kDynamic) {
    expected = provider_ ? provider_(record.iteration) : nullptr;
  } else if (config_.detector == DetectorKind::kStreaming) {
    publish(streaming_[record.leaf.v()]->observe(record));
    return;
  }
  if (expected != nullptr) publish(evaluate_record(*expected, config_.threshold, record));
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
