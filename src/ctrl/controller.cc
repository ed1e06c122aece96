#include "ctrl/controller.h"

#include <algorithm>

namespace flowpulse::ctrl {

MitigationController::MitigationController(sim::Simulator& sim, net::RoutingState& routing,
                                           MitigationPolicy policy)
    : sim_{sim}, routing_{routing}, policy_{policy} {}

void MitigationController::attach(fp::FlowPulseSystem& system) {
  if (policy_.threshold <= 0.0) policy_.threshold = system.config().threshold;
  system.set_alert_hook([this](const fp::DetectionResult& r) { observe(r); });
}

void MitigationController::observe(const fp::DetectionResult& result) {
  IterAgg& agg = pending_[result.iteration];
  ++agg.reports;
  agg.max_dev = std::max(agg.max_dev, result.max_rel_dev);
  for (const fp::PortAlert& a : result.alerts) {
    fp::for_each_suspect_link(result.leaf, a, [&agg](net::LinkId key) {
      if (std::find(agg.suspects.begin(), agg.suspects.end(), key) == agg.suspects.end()) {
        agg.suspects.push_back(key);
      }
    });
  }
  const std::uint32_t expected =
      policy_.reports_per_iteration > 0 ? policy_.reports_per_iteration : routing_.leaves();
  if (agg.reports >= expected) {
    // Per-leaf results arrive in iteration order, so completions do too.
    const IterAgg done = std::move(agg);
    pending_.erase(result.iteration);
    on_iteration_complete(result.iteration, done);
  }
}

void MitigationController::on_iteration_complete(net::IterIndex iteration,
                                                 const IterAgg& agg) {
  last_completed_ = static_cast<std::int64_t>(iteration.v());
  const bool clean = agg.max_dev <= policy_.threshold;
  if (!clean && !timeline_.detected()) {
    timeline_.first_alert = sim_.now();
    timeline_.first_alert_iteration = iteration;
  }
  // Contaminated by a routing action — discard for every link (see
  // settle_until_): judging these would read the transition itself as a
  // fault or a recovery.
  if (static_cast<std::int64_t>(iteration.v()) <= settle_until_) return;
  if (timeline_.mitigated() && !timeline_.has_recovered() && clean) {
    timeline_.recovered = sim_.now();
  }
  for (const net::LinkId key : agg.suspects) links_.try_emplace(key);
  for (auto& [key, ctl] : links_) {
    const bool implicated =
        std::find(agg.suspects.begin(), agg.suspects.end(), key) != agg.suspects.end();
    step_link(key, ctl, implicated, clean, iteration);
  }
}

void MitigationController::step_link(net::LinkId key, LinkCtl& ctl, bool implicated,
                                     bool iteration_clean, net::IterIndex iteration) {
  switch (ctl.state) {
    case LinkState::kHealthy:
      if (!implicated) {
        ctl.streak = 0;
        break;
      }
      if (++ctl.streak >= policy_.debounce_iterations &&
          ctl.misfires < policy_.max_strikes && quarantine_allowed(key)) {
        set_quarantined(key, true, iteration, MitigationEvent::Kind::kQuarantine, "debounce");
        if (!timeline_.mitigated()) {
          timeline_.first_quarantine = sim_.now();
          timeline_.first_quarantine_iteration = iteration;
        }
        ctl.state = LinkState::kProbation;
        ctl.streak = 0;
        ctl.clean = 0;
      }
      break;

    case LinkState::kProbation:
      // Quarantined; the link itself carries no traffic anymore, so the
      // verdict rides on the fabric-wide deviation: still hot means the
      // quarantine cured nothing (wrong target / threshold under the noise
      // floor) and the link goes back into service.
      if (iteration_clean) {
        ctl.streak = 0;
        if (++ctl.clean >= policy_.probation_iterations) {
          confirm(key, iteration, "quarantine");
          ctl.state = LinkState::kQuarantined;
          ctl.since_confirm = 0;
        }
      } else {
        ctl.clean = 0;
        if (++ctl.streak >= policy_.debounce_iterations) {
          ++ctl.misfires;
          set_quarantined(key, false, iteration, MitigationEvent::Kind::kRestore,
                          "ineffective");
          ctl.state = LinkState::kHealthy;
          ctl.streak = 0;
        }
      }
      break;

    case LinkState::kQuarantined:
      if (policy_.restore_probe_after == 0 || ctl.relapses >= policy_.max_strikes) break;
      if (++ctl.since_confirm >= policy_.restore_probe_after) {
        set_quarantined(key, false, iteration, MitigationEvent::Kind::kRestore, "probe");
        ctl.state = LinkState::kRestoreProbation;
        ctl.streak = 0;
        ctl.clean = 0;
      }
      break;

    case LinkState::kRestoreProbation:
      if (implicated) {
        ctl.clean = 0;
        if (++ctl.streak >= policy_.debounce_iterations) {
          ++ctl.relapses;
          set_quarantined(key, true, iteration, MitigationEvent::Kind::kQuarantine,
                          "relapse");
          if (ctl.relapses >= policy_.max_strikes) {
            confirm(key, iteration, "permanent");
            ctl.state = LinkState::kQuarantined;
            ctl.since_confirm = 0;
          } else {
            ctl.state = LinkState::kProbation;
          }
          ctl.streak = 0;
          ctl.clean = 0;
        }
      } else {
        ctl.streak = 0;
        if (++ctl.clean >= policy_.probation_iterations) {
          confirm(key, iteration, "restore");
          ctl.state = LinkState::kHealthy;
          ctl.clean = 0;
        }
      }
      break;
  }
}

bool MitigationController::quarantine_allowed(net::LinkId key) const {
  if (routing_.known_failed(key.leaf(), key.uplink())) {
    return false;  // already out of service
  }
  const std::uint32_t healthy =
      routing_.uplinks_per_leaf() - routing_.known_failed_count(key.leaf());
  return healthy > policy_.min_healthy_uplinks;
}

void MitigationController::set_quarantined(net::LinkId key, bool failed,
                                           net::IterIndex iteration,
                                           MitigationEvent::Kind kind, const char* reason) {
  routing_.set_known_failed(key.leaf(), key.uplink(), failed);
  if (rebaseline_) rebaseline_();
  settle_until_ = static_cast<std::int64_t>(iteration.v()) + policy_.settle_iterations;
  events_.push_back({kind, sim_.now(), iteration, key.leaf(), key.uplink(), reason});
  FP_TRACE(sim_, kMitigation, "", key.leaf().v(), key.uplink().v(), iteration.v(),
           static_cast<double>(static_cast<int>(kind)), reason);
}

void MitigationController::confirm(net::LinkId key, net::IterIndex iteration,
                                   const char* reason) {
  events_.push_back({MitigationEvent::Kind::kConfirm, sim_.now(), iteration, key.leaf(),
                     key.uplink(), reason});
  FP_TRACE(sim_, kMitigation, "", key.leaf().v(), key.uplink().v(), iteration.v(),
           static_cast<double>(static_cast<int>(MitigationEvent::Kind::kConfirm)), reason);
}

bool MitigationController::fidelity_hold() const {
  if (last_completed_ <= settle_until_ && settle_until_ >= 0) return true;
  for (const auto& [key, ctl] : links_) {
    switch (ctl.state) {
      case LinkState::kProbation:
      case LinkState::kRestoreProbation:
        return true;
      case LinkState::kQuarantined:
        // Trial restore fires when since_confirm reaches restore_probe_after;
        // the iteration that will be judged right after it must be real.
        if (policy_.restore_probe_after > 0 && ctl.relapses < policy_.max_strikes &&
            ctl.since_confirm + 1 >= policy_.restore_probe_after) {
          return true;
        }
        break;
      case LinkState::kHealthy:
        break;
    }
  }
  return false;
}

std::uint32_t MitigationController::active_quarantines() const {
  std::uint32_t n = 0;
  for (const auto& [key, ctl] : links_) {
    if (ctl.state == LinkState::kProbation || ctl.state == LinkState::kQuarantined) ++n;
  }
  return n;
}

bool MitigationController::quarantined(net::LeafId leaf, net::UplinkIndex uplink) const {
  const auto it = links_.find(net::LinkId::of(leaf, uplink));
  if (it == links_.end()) return false;
  return it->second.state == LinkState::kProbation ||
         it->second.state == LinkState::kQuarantined;
}

}  // namespace flowpulse::ctrl
