#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/system.h"
#include "net/routing.h"
#include "net/types.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::ctrl {

/// Closed-loop mitigation policy. The detection threshold the controller
/// judges iterations by defaults to the attached system's (threshold <= 0
/// means "inherit on attach").
///
/// The loop, per suspect (leaf, uplink):
///
///   Healthy --K alerted iters--> quarantine + re-baseline --> Probation
///   Probation --P clean iters--> Confirmed       (fault contained)
///   Probation --K dirty iters--> restore + re-baseline      (misfire:
///                                quarantine cured nothing — false positive)
///   Confirmed --R iters--> trial restore + re-baseline --> RestoreProbation
///   RestoreProbation --P clean iters--> Healthy   (link healed / transient)
///   RestoreProbation --K alerted iters--> re-quarantine      (relapse)
///
/// Relapses beyond `max_strikes` make the quarantine permanent (no more
/// trial restores); misfires beyond `max_strikes` ban the link from further
/// quarantines (churn guard for a threshold set below the noise floor).
struct MitigationPolicy {
  bool enabled = false;
  /// Deviation threshold for probation judgement; <= 0 inherits the
  /// system's threshold when attach()ed to a FlowPulseSystem.
  double threshold = 0.0;
  /// K: consecutive alerted iterations implicating the same (leaf, uplink)
  /// before the controller acts — debounce against one-iteration blips.
  std::uint32_t debounce_iterations = 2;
  /// Iterations after a routing change whose measurements are discarded:
  /// traffic already sprayed under the old routing contaminates them.
  std::uint32_t settle_iterations = 1;
  /// P: clean iterations that confirm a quarantine (or a restore).
  std::uint32_t probation_iterations = 2;
  /// R: confirmed-quarantine iterations before the controller trial-restores
  /// the link to see whether it healed (flapping cables). 0 = one-shot
  /// quarantine, never probe.
  std::uint32_t restore_probe_after = 0;
  /// Relapse / misfire budget per link before the state is frozen.
  std::uint32_t max_strikes = 3;
  /// Never quarantine a link if doing so would leave its leaf with fewer
  /// healthy uplinks than this (don't let mitigation partition the fabric).
  std::uint32_t min_healthy_uplinks = 1;
  /// Reports expected per iteration before it is judged complete;
  /// 0 = one per leaf (every leaf monitors, the paper's deployment).
  std::uint32_t reports_per_iteration = 0;
};

/// One control-plane action taken by the controller, for the recovery
/// timeline and operator-facing reports.
struct MitigationEvent {
  enum class Kind : std::uint8_t {
    kQuarantine,  ///< uplink pushed into RoutingState as known-failed
    kRestore,     ///< uplink returned to service
    kConfirm,     ///< probation closed clean — current state verified
  };
  Kind kind = Kind::kQuarantine;
  sim::Time time = sim::Time::zero();
  net::IterIndex iteration{};  ///< completed iteration that triggered it
  net::LeafId leaf{};
  net::UplinkIndex uplink{};
  /// Static string: "debounce" / "relapse" (quarantines), "ineffective" /
  /// "probe" (restores), "quarantine" / "restore" / "permanent" (confirms).
  const char* reason = "";
};

/// Recovery milestones of the run's *first* mitigated fault — the
/// time-to-detect / time-to-mitigate / time-to-recover triple the recovery
/// bench reports (times are absolute; subtract the fault onset).
struct RecoveryTimeline {
  sim::Time first_alert = sim::Time::max();       ///< detect
  sim::Time first_quarantine = sim::Time::max();  ///< mitigate
  sim::Time recovered = sim::Time::max();         ///< first clean post-settle iter
  net::IterIndex first_alert_iteration{};
  net::IterIndex first_quarantine_iteration{};
  [[nodiscard]] bool detected() const { return first_alert != sim::Time::max(); }
  [[nodiscard]] bool mitigated() const { return first_quarantine != sim::Time::max(); }
  [[nodiscard]] bool has_recovered() const { return recovered != sim::Time::max(); }
};

/// The fabric controller that closes the paper's loop: FlowPulse detects and
/// localizes a silent fault; this controller then treats it like a *known*
/// fault — exactly what the analytical model d/(s−f) already absorbs.
///
/// It subscribes to per-iteration DetectionResults (FlowPulseSystem alert
/// hook), debounces, quarantines the suspect uplink by pushing it into
/// net::RoutingState mid-run (APS stops spraying onto it at the very next
/// packet), re-baselines the load model by re-running the analytical
/// prediction over the updated failed set, and verifies through probation
/// windows — restoring links whose quarantine proved ineffective (false
/// positives) and trial-restoring confirmed quarantines to catch links that
/// healed (flaps). All actions are appended to an event log.
///
/// The links an alert implicates follow fp::for_each_suspect_link, the
/// culprit rule the daemon's verdict plane shares.
class MitigationController {
 public:
  /// Recompute + install the load model for the current RoutingState. The
  /// controller calls it after every set_known_failed it performs.
  using Rebaseline = std::function<void()>;

  MitigationController(sim::Simulator& sim, net::RoutingState& routing,
                       MitigationPolicy policy);

  void set_rebaseline(Rebaseline fn) { rebaseline_ = std::move(fn); }

  /// Subscribe to `system`'s per-iteration results. Inherits the detection
  /// threshold if the policy left it unset. exp::Scenario attaches a
  /// controller only to fixed models (kAnalytical / kSimulation), whose
  /// prediction its re-baseline re-runs.
  void attach(fp::FlowPulseSystem& system);

  /// Feed one evaluated (leaf × iteration) check. Called by the alert hook;
  /// public so tests and custom deployments can drive the state machine
  /// directly.
  void observe(const fp::DetectionResult& result);

  [[nodiscard]] const std::vector<MitigationEvent>& events() const { return events_; }
  [[nodiscard]] const RecoveryTimeline& timeline() const { return timeline_; }
  [[nodiscard]] const MitigationPolicy& policy() const { return policy_; }
  /// Links currently quarantined by this controller (not pre-existing ones).
  [[nodiscard]] std::uint32_t active_quarantines() const;
  [[nodiscard]] bool quarantined(net::LeafId leaf, net::UplinkIndex uplink) const;

  /// True while the controller needs packet-fidelity iterations to make a
  /// sound judgement — the hybrid engine's demotion trigger. Holds while:
  ///  * any link is in a probation window (quarantine or restore being
  ///    verified against real traffic),
  ///  * the settle window after a routing action is still discarding
  ///    iterations (the next judged iteration must be a real one),
  ///  * a confirmed quarantine will trial-restore within the next completed
  ///    iteration (the probe must measure real traffic on the link).
  [[nodiscard]] bool fidelity_hold() const;

 private:
  enum class LinkState : std::uint8_t {
    kHealthy,           ///< in service, counting alert streaks
    kProbation,         ///< quarantined, verifying the alerts stop
    kQuarantined,       ///< quarantine confirmed; may trial-restore later
    kRestoreProbation,  ///< trial-restored, verifying the alerts stay away
  };

  struct LinkCtl {
    LinkState state = LinkState::kHealthy;
    std::uint32_t streak = 0;       ///< consecutive implicated iterations
    std::uint32_t clean = 0;        ///< consecutive clean iterations
    std::uint32_t since_confirm = 0;
    std::uint32_t relapses = 0;     ///< restore probes that failed
    std::uint32_t misfires = 0;     ///< quarantines that cured nothing
  };

  struct IterAgg {
    std::uint32_t reports = 0;
    double max_dev = 0.0;
    std::vector<net::LinkId> suspects;  ///< deduplicated shortfall culprits
  };

  void on_iteration_complete(net::IterIndex iteration, const IterAgg& agg);
  void step_link(net::LinkId key, LinkCtl& ctl, bool implicated, bool iteration_clean,
                 net::IterIndex iteration);
  [[nodiscard]] bool quarantine_allowed(net::LinkId key) const;
  void set_quarantined(net::LinkId key, bool failed, net::IterIndex iteration,
                       MitigationEvent::Kind kind, const char* reason);
  void confirm(net::LinkId key, net::IterIndex iteration, const char* reason);

  sim::Simulator& sim_;
  net::RoutingState& routing_;
  MitigationPolicy policy_;
  Rebaseline rebaseline_;
  std::map<net::LinkId, LinkCtl> links_;
  std::map<net::IterIndex, IterAgg> pending_;  ///< iteration → partial aggregate
  std::vector<MitigationEvent> events_;
  RecoveryTimeline timeline_;
  /// Every routing action contaminates the next iteration(s) fabric-wide:
  /// in-flight traffic was sprayed under the old routing but is judged
  /// against the re-baselined prediction. Iterations <= this are discarded
  /// for ALL links — a per-link window would let one link's action trick
  /// another link's debounce. -1 = nothing skipped yet.
  std::int64_t settle_until_ = -1;
  /// Last iteration index whose reports all arrived; -1 before the first.
  std::int64_t last_completed_ = -1;
};

}  // namespace flowpulse::ctrl
