#include "exp/scenario.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "exp/trials.h"
#include "flowpulse/analytical_model.h"
#include "obs/export.h"

namespace flowpulse::exp {
namespace {

// Safety cap on simulated time.
constexpr sim::Time kHorizon = sim::Time::seconds(10);

// audit::ScopedDumpHook target: when an invariant dies mid-run, write the
// flight recorder's retained window to stderr before the abort / test
// throw, so the causal event trail survives the crash.
void dump_recorder_on_audit_failure(void* ctx, const sim::audit::Violation& v) {
  const auto* recorder = static_cast<const obs::FlightRecorder*>(ctx);
  std::fprintf(stderr,
               "[flowpulse-trace] flight recorder at %s failure (%zu events, %llu lost "
               "to ring wrap):\n",
               v.invariant.c_str(), recorder->size(),
               static_cast<unsigned long long>(recorder->dropped()));
  const std::string timeline = obs::text_timeline(recorder->snapshot());
  std::fputs(timeline.c_str(), stderr);
  std::fflush(stderr);
}

}  // namespace

std::vector<net::HostId> all_hosts_ring(const net::TopologyInfo& info) {
  std::vector<net::HostId> hosts(info.num_hosts(), net::HostId{});
  for (const net::HostId h : core::ids<net::HostId>(info.num_hosts())) hosts[h.v()] = h;
  return hosts;
}

collective::CommSchedule make_schedule(collective::CollectiveKind kind,
                                       const net::TopologyInfo& shape,
                                       core::Bytes total_bytes) {
  using collective::CollectiveKind;
  const std::uint32_t ranks = shape.num_hosts();
  switch (kind) {
    case CollectiveKind::kRingAllReduce:
      return collective::ring_all_reduce(ranks, total_bytes);
    case CollectiveKind::kRingReduceScatter:
      return collective::ring_reduce_scatter(ranks, total_bytes);
    case CollectiveKind::kRingAllGather:
      return collective::ring_all_gather(ranks, total_bytes);
    case CollectiveKind::kAllToAll:
      // total_bytes is interpreted as the whole collective; split per pair.
      return collective::all_to_all(
          ranks, total_bytes / (static_cast<std::uint64_t>(ranks) * (ranks - 1)));
    case CollectiveKind::kHierarchicalRing:
      // One group per leaf; leaders run the inter-leaf ring.
      return collective::hierarchical_ring_all_reduce(shape.leaves, shape.hosts_per_leaf,
                                                      total_bytes);
  }
  return collective::ring_reduce_scatter(ranks, total_bytes);
}

Scenario::Scenario(ScenarioConfig config)
    : config_{std::move(config)}, demand_{config_.fabric.shape.num_hosts()} {
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  // The demand is computed from the schedule once; the runner then owns it.
  collective::CommSchedule schedule =
      make_schedule(config_.collective, config_.fabric.shape, config_.collective_bytes);
  demand_ = collective::DemandMatrix::from_schedule(
      schedule, all_hosts_ring(config_.fabric.shape), config_.fabric.shape.num_hosts());
  config_.fabric.seed = config_.seed;
  sim_ = std::make_unique<sim::Simulator>(config_.seed);
  // Tracing is armed before any component exists so even wiring-time and
  // first-iteration events land in the ring. An explicit config level wins;
  // kOff defers to the FLOWPULSE_TRACE environment variable.
  const core::TraceLevel trace_level = config_.trace.level != core::TraceLevel::kOff
                                           ? config_.trace.level
                                           : obs::env_level();
  if (trace_level != core::TraceLevel::kOff) {
    recorder_ = std::make_unique<obs::FlightRecorder>(config_.trace.capacity);
    recorder_->set_level(trace_level);
    sim_->set_trace(recorder_.get());
  }
  // Sharded event lanes. Only scenarios whose every source of randomness
  // is lane-local (or never consulted) can shard without diverging from
  // the serial engine: probabilistic faults draw from the fabric-wide
  // fault RNG in packet order, which lanes would replay differently, and
  // the stop()-driven engines (hybrid fidelity, background job), eager
  // closed-loop consumers (mitigation, dynamic model) and the
  // simulator-bound flight recorder all assume the single-queue serial
  // loop. Anything else silently falls back to serial, exactly like the
  // hybrid engine's own fallback.
  const std::int32_t lanes_requested = config_.lanes >= 0 ? config_.lanes : env_lanes();
  bool deterministic_faults = true;
  for (const NewFault& f : config_.new_faults) {
    if (f.spec.kind != net::FaultSpec::Kind::kNone && !f.spec.drops_all()) {
      deterministic_faults = false;
    }
  }
  const bool laned = lanes_requested >= 2 &&
                     config_.fidelity.mode == fp::FidelityMode::kPacket &&
                     config_.background.bytes == core::Bytes{0} &&
                     !config_.mitigation.enabled &&
                     config_.flowpulse.model != fp::ModelKind::kDynamic &&
                     recorder_ == nullptr && deterministic_faults;
  if (laned) {
    // Lane 0 keeps the trial seed (host/transport/collective randomness is
    // identical to serial); extra lanes get streams split deterministically
    // from it. In practice the extra-lane streams are never drawn from —
    // switch-side randomness is per-switch or gated out above — but a lane
    // must never be seedless.
    std::vector<sim::Simulator*> lane_ptrs{sim_.get()};
    for (std::int32_t k = 1; k < lanes_requested; ++k) {
      extra_lanes_.push_back(std::make_unique<sim::Simulator>(
          config_.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(k))));
      lane_ptrs.push_back(extra_lanes_.back().get());
    }
    fabric_ = std::make_unique<net::FatTree>(lane_ptrs, config_.fabric);
    lane_runner_ = std::make_unique<sim::LaneRunner>(
        std::vector<sim::EventLane*>(lane_ptrs.begin(), lane_ptrs.end()),
        fabric_->min_cross_lane_latency());
  } else {
    fabric_ = std::make_unique<net::FatTree>(*sim_, config_.fabric);
  }

  // Known pre-existing failures first: they shape both routing and the
  // prediction.
  for (const auto& [leaf, uplink] : config_.preexisting) {
    fabric_->disconnect_known(leaf, uplink);
  }

  transports_ = std::make_unique<transport::TransportLayer>(*sim_, *fabric_, config_.transport);

  flowpulse_ = std::make_unique<fp::FlowPulseSystem>(fp::Tier::leaves_of(fabric_->info()),
                                                     config_.flowpulse);
  for (const net::LeafId l : core::ids<net::LeafId>(fabric_->info().leaves)) {
    flowpulse_->attach(l, fabric_->leaf(l));
  }
  // Sharded monitors finalize on their own lanes; evaluation is deferred to
  // the post-drain flush and replayed in canonical (iteration, leaf) order.
  if (lane_runner_ != nullptr) flowpulse_->set_deferred_evaluation(true);
  switch (config_.flowpulse.model) {
    case fp::ModelKind::kAnalytical:
      flowpulse_->set_prediction(analytical_prediction());
      break;
    case fp::ModelKind::kSimulation:
      flowpulse_->set_prediction(simulation_prediction());
      break;
    case fp::ModelKind::kLearned:  // the system learns in-band
    case fp::ModelKind::kDynamic:  // the provider predicts per iteration
      break;
  }

  // The hybrid engine needs a fixed model to synthesize against and owns
  // the iteration loop, which the background job's free-running runner is
  // incompatible with; anything else falls back to the packet path.
  hybrid_active_ = config_.fidelity.mode != fp::FidelityMode::kPacket &&
                   prediction() != nullptr && config_.background.bytes == core::Bytes{0};
  if (hybrid_active_) {
    // Relative sigma of the seeded multiplicative noise on synthesized
    // per-port counters, so detector statistics stay honest: spray
    // imbalance in packet runs is ~0.2% at paper scale.
    constexpr double kSprayNoiseRel = 0.002;
    fp::FastForwardModel::Config ffc;
    ffc.mtu_payload = config_.transport.mtu_payload;
    ffc.header_bytes = net::kHeaderBytes;
    ffc.noise_rel = kSprayNoiseRel;
    ffc.seed = config_.seed ^ 0xf1de11ull;
    fastforward_ = std::make_unique<fp::FastForwardModel>(config_.fabric.shape, ffc);
    std::vector<fp::FastForwardModel::FlowFault> faults;
    for (const NewFault& f : config_.new_faults) {
      fp::FastForwardModel::FlowFault ff;
      ff.leaf = f.leaf;
      ff.uplink = f.uplink;
      ff.uplink_dir = f.where != NewFault::Where::kDownlink;
      ff.downlink_dir = f.where != NewFault::Where::kUplink;
      ff.spec = f.spec;
      faults.push_back(ff);
    }
    fastforward_->set_faults(std::move(faults));
    fastforward_->rebaseline(demand_, fabric_->routing());
  }

  if (config_.mitigation.enabled && prediction() != nullptr) {
    controller_ = std::make_unique<ctrl::MitigationController>(*sim_, fabric_->routing(),
                                                               config_.mitigation);
    // Re-baseline = re-run the closed-form model over the updated failed
    // set: a quarantined uplink becomes a *known* fault, exactly what
    // d/(s−f) absorbs. The fast-forward synthesis follows the same routing.
    controller_->set_rebaseline([this] {
      flowpulse_->set_prediction(analytical_prediction());
      if (fastforward_) fastforward_->rebaseline(demand_, fabric_->routing());
    });
    controller_->attach(*flowpulse_);
  }

  if (recorder_ != nullptr) {
    // Replace the alert hook (controller_->attach installed its own) with a
    // wrapper that runs the controller first: any quarantine the result
    // triggers is already in the ring when the dump snapshots it.
    ctrl::MitigationController* controller = controller_.get();
    flowpulse_->set_alert_hook([this, controller](const fp::DetectionResult& r) {
      if (controller != nullptr) controller->observe(r);
      maybe_dump(r);
    });
  }

  apply_new_faults();

  collective::CollectiveConfig cc;
  cc.hosts = all_hosts_ring(config_.fabric.shape);
  cc.schedule = std::move(schedule);
  cc.iterations = config_.iterations;
  cc.compute_gap = config_.compute_gap;
  cc.max_jitter = config_.max_jitter;
  cc.validate_data = config_.validate_data;
  cc.auto_advance = !hybrid_active_;  // the hybrid loop steps iterations itself
  runner_ = std::make_unique<collective::CollectiveRunner>(*sim_, *transports_, std::move(cc));
  runner_->add_iteration_hook([this](net::IterIndex, sim::Time start, sim::Time end) {
    iter_windows_.emplace_back(start, end);
  });
  if (hybrid_active_) {
    // Manual stepping: halt the event loop the moment the iteration
    // completes. Without this, run_until(horizon) would drain the stale-RTO
    // tail and then clamp the clock all the way to the horizon.
    runner_->add_iteration_hook(
        [this](net::IterIndex, sim::Time, sim::Time) { sim_->stop(); });
  }

  if (config_.background.bytes > core::Bytes{0}) {
    collective::CollectiveConfig bg;
    bg.hosts = all_hosts_ring(config_.fabric.shape);
    bg.schedule = collective::ring_all_reduce(config_.fabric.shape.num_hosts(),
                                              config_.background.bytes);
    // Effectively unbounded: the run ends when the measured job finishes.
    bg.iterations = 1u << 30;
    bg.compute_gap = sim::Time::microseconds(1);
    bg.priority = config_.background.priority;
    bg.job_id = 1;
    bg.tag_flow = false;  // unmeasured
    background_runner_ =
        std::make_unique<collective::CollectiveRunner>(*sim_, *transports_, std::move(bg));
    // Stop the whole simulation shortly after the measured job completes so
    // the background job cannot spin forever.
    runner_->add_iteration_hook([this](net::IterIndex iteration, sim::Time, sim::Time) {
      if (iteration.v() + 1 == config_.iterations) {
        sim_->schedule_in(sim::Time::microseconds(1), [this] { sim_->stop(); });
      }
    });
  }
}

fp::PortLoadMap Scenario::analytical_prediction() const {
  const fp::AnalyticalModel model{config_.fabric.shape, config_.transport.mtu_payload,
                                  net::kHeaderBytes};
  return model.predict(demand_, fabric_->routing());
}

fp::PortLoadMap Scenario::simulation_prediction() const {
  // Nested fault-free-of-NEW-faults run of the same scenario; average the
  // monitors' per-iteration observations into the prediction. This is the
  // paper's "simulation-based model": highest fidelity, costs a simulation
  // before the job (§5.2).
  ScenarioConfig nested = config_;
  nested.new_faults.clear();
  // Iterations the nested prediction run simulates.
  constexpr std::uint32_t kSimModelIterations = 2;
  nested.iterations = kSimModelIterations;
  nested.flowpulse.model = fp::ModelKind::kAnalytical;  // prediction unused
  // The model-building run must measure real packets, whatever the outer
  // run's fidelity policy is.
  nested.fidelity = fp::FidelityPolicy{};
  // The nested model-building run stays serial: it is short, and sharding
  // it would nest a lane pool inside a possibly-laned outer run.
  nested.lanes = 0;
  nested.seed = config_.seed ^ 0x51b0a11ull;  // independent randomness
  Scenario inner{std::move(nested)};
  inner.run();

  // Each leaf's load is the learned model's mean over all its records.
  const net::TopologyInfo& info = config_.fabric.shape;
  fp::PortLoadMap map{info.leaves, info.uplinks_per_leaf()};
  for (const net::LeafId l : core::ids<net::LeafId>(info.leaves)) {
    const auto& history = inner.flowpulse().monitor(l).history();
    if (history.empty()) continue;
    fp::RowBaseline mean{info.uplinks_per_leaf(),
                         {.model = fp::ModelKind::kLearned,
                          .learn_iterations = static_cast<std::uint32_t>(history.size())}};
    for (const fp::IterationRecord& rec : history) (void)mean.observe(rec);
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(info.uplinks_per_leaf())) {
      map.at(l, u) = mean.baseline()[u.v()];
    }
  }
  return map;
}

void Scenario::apply_new_faults() {
  for (const NewFault& f : config_.new_faults) {
    switch (f.where) {
      case NewFault::Where::kDownlink:
        fabric_->set_downlink_fault(f.leaf, f.uplink, f.spec);
        break;
      case NewFault::Where::kUplink:
        fabric_->set_uplink_fault(f.leaf, f.uplink, f.spec);
        break;
      case NewFault::Where::kBoth:
        fabric_->set_link_fault(f.leaf, f.uplink, f.spec);
        break;
    }
  }
}

bool Scenario::fault_active_during(sim::Time start, sim::Time end) const {
  for (const NewFault& f : config_.new_faults) {
    if (f.spec.active_during(start, end)) return true;
  }
  return false;
}

bool Scenario::unquarantined_fault_during(sim::Time start, sim::Time end) const {
  for (const NewFault& f : config_.new_faults) {
    // A fault on a link routing already avoids sees no traffic; flow-level
    // synthesis is exact there and packet fidelity buys nothing.
    if (fabric_->routing().known_failed(f.leaf, f.uplink)) continue;
    if (f.spec.active_during(start, end)) return true;
  }
  return false;
}

// The hybrid loop: drive iterations one at a time, choosing per iteration
// between full packet simulation and flow-level fast-forward. Packet
// iterations run the real CollectiveRunner to quiescence and then flush the
// monitors so every leaf's record for iteration k is finalized (and judged)
// before iteration k+1 starts — preserving the controller's in-order
// completion assumption. Flow iterations advance the clock analytically and
// inject synthesized records through FlowPulseSystem::ingest.
void Scenario::run_hybrid() {
  fidelity_stats_ = fp::FidelityStats{};
  fidelity_stats_.enabled = true;
  fidelity_stats_.mode = config_.fidelity.mode;
  const bool flow_only = config_.fidelity.mode == fp::FidelityMode::kFlow;
  const net::TopologyInfo& info = config_.fabric.shape;

  // The first iteration always runs at packet fidelity in kHybrid: it
  // primes the iteration-duration estimate the fast-forward clock uses.
  // kFlow estimates analytically instead.
  constexpr std::uint32_t kWarmupIterations = 1;
  const std::uint32_t warmup = flow_only ? 0 : kWarmupIterations;

  // Demote to packets when a configured silent fault is active within this
  // many iterations of the upcoming window (fault onset/offset edges are
  // where flow-level synthesis is least faithful).
  constexpr std::uint32_t kFaultGuardIterations = 1;
  // Hysteresis: after any detector alert or mitigation action, stay at
  // packet fidelity for this many iterations before re-promoting. Covers
  // debounce + probation of the default mitigation policy.
  constexpr std::uint32_t kAlertHoldIterations = 4;

  // Iteration-duration estimate for the fast-forward clock: analytic at
  // first, then the EWMA of measured packet iterations in hybrid mode.
  sim::Time est =
      fastforward_->estimate_iteration_time(demand_, config_.fabric.host_link.bandwidth);

  // The compute gap after an iteration runs event by event, as packet mode
  // runs it, so only a flow iteration's window counts (and is traced) as a
  // fast-forward. A zero gap is a no-op.
  const auto drain_compute_gap = [this](sim::Time from) {
    const sim::Time until = from + config_.compute_gap;
    if (until > sim_->now()) sim_->run_until(until);
  };

  std::uint32_t hold = 0;          // alert-hold hysteresis, in iterations
  std::size_t seen_results = 0;    // results already scanned for alerts
  std::size_t seen_events = 0;     // mitigation events already seen
  bool prev_packet = true;

  for (std::uint32_t iter = 0; iter < config_.iterations; ++iter) {
    if (sim_->now() >= kHorizon) break;

    bool packet = false;
    if (!flow_only) {
      const sim::Time span = est + config_.compute_gap;
      const sim::Time guard =
          sim::Time::picoseconds(span.ps() * (kFaultGuardIterations + 1));
      const sim::Time guard_start =
          sim_->now() > guard ? sim_->now() - guard : sim::Time::zero();
      packet = iter < warmup || hold > 0 ||
               (controller_ != nullptr && controller_->fidelity_hold()) ||
               unquarantined_fault_during(guard_start, sim_->now() + guard);
    }
    if (iter > 0 && packet != prev_packet) {
      packet ? ++fidelity_stats_.demotions : ++fidelity_stats_.promotions;
      FP_TRACE(*sim_, kFidelity, "sim", iter, packet ? 1 : 0, 0, 0.0,
               packet ? "demote-to-packet" : "promote-to-flow");
    }
    prev_packet = packet;
    fidelity_stats_.iteration_mode.push_back(packet ? 1 : 0);

    if (packet) {
      ++fidelity_stats_.packet_iterations;
      // The runner only counts iterations it actually ran (flow-mode
      // iterations are invisible to it), so completion is "one more than
      // before", not "iter + 1".
      const std::uint32_t completed_before = runner_->completed_iterations();
      runner_->start_iteration(iter);
      sim_->run_until(kHorizon);  // the stop hook halts at completion
      if (runner_->completed_iterations() == completed_before) {
        // Horizon hit mid-iteration: the iteration did not complete.
        --fidelity_stats_.packet_iterations;
        fidelity_stats_.iteration_mode.pop_back();
        break;
      }
      // Drain the compute gap BEFORE finalizing: in-flight duplicates,
      // trailing ACKs and stale RTO timers land here, so late data packets
      // fold into this iteration's record exactly as continuous packet mode
      // attributes them (a late duplicate always precedes iter+1's first
      // packet).
      drain_compute_gap(sim_->now());
      // Finalize iteration `iter` at every monitor now (packet mode would
      // have waited for iteration iter+1's first packet, which may never be
      // simulated); results flow to the detector/controller here.
      flowpulse_->flush();
      const auto& durations = runner_->iteration_durations();
      if (!durations.empty()) {
        const sim::Time d = durations.back();
        // EWMA (alpha = 1/2) over measured packet iterations.
        est = iter < warmup ? d : sim::Time::picoseconds((est.ps() + d.ps()) / 2);
      }
    } else {
      ++fidelity_stats_.flow_iterations;
      const sim::Time start = sim_->now();
      const sim::Time end = start + est;
      sim_->fast_forward(end);
      for (const net::LeafId l : core::ids<net::LeafId>(info.leaves)) {
        flowpulse_->ingest(fastforward_->synthesize(l, net::IterIndex{iter}, start, end));
      }
      iter_windows_.emplace_back(start, end);
      drain_compute_gap(end);
    }

    // Hysteresis: any alerted check or controller action demotes the NEXT
    // kAlertHoldIterations to packets, so debounce/probation judge real
    // traffic end-to-end.
    bool activity = false;
    const auto& results = flowpulse_->results();
    for (; seen_results < results.size(); ++seen_results) {
      if (results[seen_results].faulty()) activity = true;
    }
    if (controller_ != nullptr && controller_->events().size() > seen_events) {
      seen_events = controller_->events().size();
      activity = true;
    }
    if (activity && !flow_only) {
      hold = kAlertHoldIterations;
    } else if (hold > 0) {
      --hold;
    }
  }
  flowpulse_->flush();
}

// Snapshot the ring when a (leaf × iteration) check flagged ports or drove
// the controller to act — the retained window is the causal context of the
// alert. One dump per iteration (every leaf reports each iteration), capped
// at kMaxDumps per run.
void Scenario::maybe_dump(const fp::DetectionResult& result) {
  constexpr std::size_t kMaxDumps = 8;
  const std::size_t mitigations = controller_ != nullptr ? controller_->events().size() : 0;
  const bool mitigated = mitigations > traced_mitigations_;
  traced_mitigations_ = mitigations;
  if (!result.faulty() && !mitigated) return;
  if (trace_dumps_.size() >= kMaxDumps) return;
  if (!trace_dumps_.empty() && trace_dumps_.back().iteration == result.iteration.v()) return;
  obs::TraceDump d;
  d.reason = (mitigated ? "mitigation leaf" : "detector-flag leaf") +
             std::to_string(result.leaf.v()) + " iter" + std::to_string(result.iteration.v());
  d.at = sim_->now();
  d.iteration = result.iteration.v();
  d.dropped = recorder_->dropped();
  d.events = recorder_->snapshot();
  trace_dumps_.push_back(std::move(d));
}

ScenarioResult Scenario::run() {
  // fplint: ok(wall-clock): wall_seconds is throughput reporting only; it
  // never feeds simulation state or results, and steady_clock is monotonic.
  const auto wall_start = std::chrono::steady_clock::now();
  std::optional<sim::audit::ScopedDumpHook> audit_dump;
  if (recorder_ != nullptr) {
    audit_dump.emplace(&dump_recorder_on_audit_failure, recorder_.get());
  }
  if (hybrid_active_) {
    run_hybrid();
  } else if (lane_runner_ != nullptr) {
    runner_->start();
    lane_runner_->run_until(kHorizon);
    flowpulse_->flush();
  } else {
    runner_->start();
    if (background_runner_) background_runner_->start();
    sim_->run_until(kHorizon);
    flowpulse_->flush();
  }
  // fplint: ok(wall-clock): end stamp of the reporting-only wall duration.
  const auto wall_end = std::chrono::steady_clock::now();

  ScenarioResult r;
  // Fast-forwarded iterations complete without touching the runner.
  r.iterations_completed =
      hybrid_active_ ? static_cast<std::uint32_t>(fidelity_stats_.iteration_mode.size())
                     : runner_->completed_iterations();
  r.data_valid = runner_->data_valid();
  r.per_iter_max_dev = flowpulse_->per_iteration_max_dev();
  r.detections = flowpulse_->results();
  // Canonical (iteration, leaf) report order on EVERY path. The serial
  // engine finalizes leaf records in packet-arrival order, which is an
  // engine scheduling detail, not a result; sorting here makes serial and
  // laned reports byte-identical and pins the goldens to the semantic
  // content.
  std::stable_sort(r.detections.begin(), r.detections.end(),
                   [](const fp::DetectionResult& a, const fp::DetectionResult& b) {
                     if (a.iteration.v() != b.iteration.v()) {
                       return a.iteration.v() < b.iteration.v();
                     }
                     return a.leaf.v() < b.leaf.v();
                   });
  r.iter_windows = iter_windows_;
  r.iter_fault_active.reserve(iter_windows_.size());
  for (const auto& [start, end] : iter_windows_) {
    r.iter_fault_active.push_back(fault_active_during(start, end) ? 1 : 0);
  }
  if (controller_) {
    r.mitigation_events = controller_->events();
    r.recovery = controller_->timeline();
  }
  r.fidelity = fidelity_stats_;
  r.transport_stats = transports_->total_stats();
  r.fabric_counters = fabric_->total_fabric_counters();
  // Report when the workload actually finished, not the safety horizon the
  // clock may have idled to.
  r.sim_end = iter_windows_.empty() ? sim_->now() : iter_windows_.back().second;
  // Laned runs report the sum over lanes, which equals the serial count
  // event for event (each cross-lane message costs exactly the one
  // delivery event its serial schedule_in counterpart would).
  r.events = lane_runner_ != nullptr ? lane_runner_->events_executed() : sim_->events_executed();
  r.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  if (recorder_ != nullptr) {
    r.trace_events = recorder_->snapshot();
    r.trace_dropped = recorder_->dropped();
    r.trace_dumps = trace_dumps_;
  }
  return r;
}

}  // namespace flowpulse::exp
