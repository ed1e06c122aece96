#include "exp/clos_scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "collective/demand_matrix.h"
#include "collective/schedule.h"
#include "exp/scenario.h"
#include "exp/trials.h"

namespace flowpulse::exp {

ClosScenario::ClosScenario(ClosScenarioConfig config) : config_{config} { build(); }

ClosScenario::~ClosScenario() = default;

void ClosScenario::build() {
  // Same deterministic-sharding gate as exp::Scenario: a probabilistic
  // fault draws from the fabric-wide fault RNG in packet order, which no
  // lane partition can reproduce — fall back to serial silently.
  const std::int32_t lanes_requested = config_.lanes >= 0 ? config_.lanes : env_lanes();
  bool deterministic_faults = true;
  for (const ClosScenarioConfig::LeafFault& f : config_.leaf_faults) {
    if (f.spec.kind != net::FaultSpec::Kind::kNone && !f.spec.drops_all()) {
      deterministic_faults = false;
    }
  }
  for (const ClosScenarioConfig::CoreFault& f : config_.core_faults) {
    if (f.spec.kind != net::FaultSpec::Kind::kNone && !f.spec.drops_all()) {
      deterministic_faults = false;
    }
  }
  const bool laned = lanes_requested >= 2 && deterministic_faults;

  lanes_.push_back(std::make_unique<sim::Simulator>(config_.seed));
  if (laned) {
    std::vector<sim::Simulator*> lane_ptrs{lanes_.front().get()};
    for (std::int32_t k = 1; k < lanes_requested; ++k) {
      lanes_.push_back(std::make_unique<sim::Simulator>(
          config_.seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(k))));
      lane_ptrs.push_back(lanes_.back().get());
    }
    fabric_ = std::make_unique<net::ThreeLevelFatTree>(lane_ptrs, config_.fabric);
    lane_runner_ = std::make_unique<sim::LaneRunner>(
        std::vector<sim::EventLane*>(lane_ptrs.begin(), lane_ptrs.end()),
        fabric_->min_cross_lane_latency());
  } else {
    fabric_ = std::make_unique<net::ThreeLevelFatTree>(*lanes_.front(), config_.fabric);
  }

  transports_ = std::make_unique<transport::TransportLayer>(*lanes_.front(), *fabric_,
                                                            config_.transport);
  flowpulse_ = std::make_unique<fp::ThreeLevelFlowPulse>(*fabric_);

  collective::CollectiveConfig cc;
  cc.hosts = all_hosts_ring(fabric_->info().leaf_tier());
  cc.schedule =
      collective::ring_reduce_scatter(fabric_->num_hosts(), config_.collective_bytes);
  cc.iterations = config_.iterations;
  cc.compute_gap = config_.compute_gap;
  cc.max_jitter = config_.max_jitter;
  runner_ = std::make_unique<collective::CollectiveRunner>(*lanes_.front(), *transports_,
                                                           std::move(cc));

  const auto demand = collective::DemandMatrix::from_schedule(
      runner_->current_schedule(), runner_->config().hosts, fabric_->num_hosts());
  const fp::ThreeLevelAnalyticalModel model{fabric_->info(), config_.transport.mtu_payload,
                                            net::kHeaderBytes};
  flowpulse_->set_prediction(model.predict(demand, fabric_->routing()));

  for (const ClosScenarioConfig::LeafFault& f : config_.leaf_faults) {
    fabric_->set_leaf_link_fault(f.leaf, f.spine_index, f.spec);
  }
  for (const ClosScenarioConfig::CoreFault& f : config_.core_faults) {
    fabric_->set_core_link_fault(f.pod, f.spine_index, f.k, f.spec);
  }
}

ClosScenarioResult ClosScenario::run() {
  // detlint: ok(wall-clock): wall_seconds is throughput reporting only; it
  // never feeds simulation state and clos_report_hash zeroes it.
  const auto wall_start = std::chrono::steady_clock::now();
  // Safety cap on simulated time.
  constexpr sim::Time kHorizon = sim::Time::seconds(10);
  runner_->start();
  if (lane_runner_ != nullptr) {
    lane_runner_->run_until(kHorizon);
  } else {
    lanes_.front()->run_until(kHorizon);
  }
  flowpulse_->flush();

  ClosScenarioResult r;
  r.laned = lane_runner_ != nullptr;
  r.lanes = static_cast<std::uint32_t>(lanes_.size());
  r.leaf_iteration_max_dev = flowpulse_->leaf_tier().per_iteration_max_dev();
  r.spine_iteration_max_dev = flowpulse_->spine_tier().per_iteration_max_dev();
  r.faulty_leaves = flowpulse_->leaf_tier().faulty_results();
  r.faulty_spines = flowpulse_->spine_tier().faulty_results();
  r.fabric_counters = fabric_->total_fabric_counters();
  // Laned lanes settle to a common clock; lane 0 always holds the latest.
  r.sim_end = lanes_.front()->now();
  for (const auto& lane : lanes_) r.sim_end = std::max(r.sim_end, lane->now());
  r.events = lane_runner_ != nullptr ? lane_runner_->events_executed()
                                     : lanes_.front()->events_executed();
  // detlint: ok(wall-clock): end stamp of the reporting-only wall duration.
  r.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 wall_start)
                       .count();
  return r;
}

namespace {

void json_dev_series(std::ostringstream& os, const char* key,
                     const std::vector<double>& devs) {
  os << '"' << key << "\":[";
  for (std::size_t i = 0; i < devs.size(); ++i) {
    if (i) os << ',';
    if (std::isfinite(devs[i])) {
      os << devs[i];
    } else {
      os << "null";
    }
  }
  os << "],";
}

void json_results(std::ostringstream& os, const char* key,
                  const std::vector<fp::DetectionResult>& results, bool comma = true) {
  os << '"' << key << "\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const fp::DetectionResult& d = results[i];
    if (i) os << ',';
    os << "{\"row\":" << d.leaf.v() << ",\"iteration\":" << d.iteration.v() << ",\"alerts\":[";
    for (std::size_t a = 0; a < d.alerts.size(); ++a) {
      const fp::PortAlert& alert = d.alerts[a];
      if (a) os << ',';
      os << "{\"port\":" << alert.uplink.v() << ",\"observed\":" << alert.observed
         << ",\"predicted\":" << alert.predicted << ",\"rel_dev\":";
      if (std::isfinite(alert.rel_dev)) {
        os << alert.rel_dev;
      } else {
        os << "null";
      }
      os << '}';
    }
    os << "]}";
  }
  os << ']';
  if (comma) os << ',';
}

}  // namespace

std::string clos_to_json(const ClosScenarioResult& result) {
  std::ostringstream os;
  os << "{\"laned\":" << (result.laned ? "true" : "false")
     << ",\"sim_end_us\":" << result.sim_end.us() << ",\"events\":" << result.events << ',';
  json_dev_series(os, "leaf_iteration_max_dev", result.leaf_iteration_max_dev);
  json_dev_series(os, "spine_iteration_max_dev", result.spine_iteration_max_dev);
  json_results(os, "faulty_leaves", result.faulty_leaves);
  json_results(os, "faulty_spines", result.faulty_spines);
  os << "\"fabric\":{\"tx_packets\":" << result.fabric_counters.tx_packets.v()
     << ",\"tx_bytes\":" << result.fabric_counters.tx_bytes.v()
     << ",\"dropped_packets\":" << result.fabric_counters.dropped_packets.v()
     << ",\"telemetry_dropped\":" << result.fabric_counters.telemetry_dropped_packets.v()
     << "},\"wall_seconds\":" << result.wall_seconds << '}';
  return os.str();
}

std::uint64_t clos_report_hash(const ClosScenarioResult& result) {
  ClosScenarioResult zeroed = result;
  zeroed.wall_seconds = 0.0;
  // "laned" and lane count are engine knobs, not results: a laned run must
  // hash identically to the serial run it mirrors.
  zeroed.laned = false;
  zeroed.lanes = 1;
  const std::string json = clos_to_json(zeroed);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t clos_report_hash(const ClosScenarioConfig& config) {
  ClosScenario scenario{config};
  return clos_report_hash(scenario.run());
}

}  // namespace flowpulse::exp
