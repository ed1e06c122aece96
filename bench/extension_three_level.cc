// EXT-3LEVEL — paper §7 "Network Topology": "FlowPulse could extend to
// other topologies by deploying FlowPulse at both leaf and spine levels to
// monitor spine-leaf and core-spine links respectively."
//
// A 3-level Clos (pods of leaves + pod-spines, plus a partitioned core
// layer) runs a Ring-AllReduce across all pods. We inject silent faults at
// each tier and report what each tier's monitors see: a leaf↔spine fault
// shows its full drop rate at the leaf tier; a core↔spine fault shows its
// full rate at the spine tier but only a 1/K-diluted echo at the leaf tier
// — exactly why the paper proposes deploying monitors at both levels.
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "bench_common.h"
#include "collective/runner.h"
#include "flowpulse/three_level_system.h"
#include "net/three_level.h"
#include "transport/transport_layer.h"

using namespace flowpulse;

namespace {

struct Result {
  double leaf_dev = 0.0;
  double spine_dev = 0.0;
  std::string leaf_verdict, spine_verdict;
};

/// Name every distinct (row, port) of the tier that fell short, in (row,
/// port) order; without one, just whether the tier deviated.
std::string verdict(double max_dev, const std::vector<fp::DetectionResult>& faulty,
                    const std::string& row_name, const std::string& port_name) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> short_ports;
  for (const auto& dr : faulty) {
    for (const auto& a : dr.alerts) {
      if (a.observed < a.predicted) short_ports.emplace(dr.leaf.v(), a.uplink.v());
    }
  }
  if (short_ports.empty()) return max_dev > 0.01 ? "FAULT" : "ok";
  std::string out;
  for (const auto& [row, port] : short_ports) {
    out += out.empty() ? "FAULT @ " : ", ";
    out += row_name + " " + std::to_string(row) + " / " + port_name + " " + std::to_string(port);
  }
  return out;
}

Result run_case(int fault_tier, double drop) {
  sim::Simulator sim{21};
  net::ThreeLevelConfig cfg;
  cfg.shape = net::ThreeLevelInfo{4, 4, 4, 1};  // 16 leaves, 16 pod-spines, 16 cores
  net::ThreeLevelFatTree net{sim, cfg};
  transport::TransportLayer transports{sim, net};
  fp::ThreeLevelFlowPulse fps{net};

  collective::CollectiveConfig cc;
  for (const net::HostId h : core::ids<net::HostId>(net.num_hosts())) {
    cc.hosts.push_back(h);
  }
  cc.schedule = collective::ring_reduce_scatter(
      net.num_hosts(),
      core::Bytes{static_cast<std::uint64_t>(24'000'000 * exp::env_scale())});
  cc.iterations = 3;
  collective::CollectiveRunner runner{sim, transports, std::move(cc)};

  std::vector<net::HostId> hosts(net.num_hosts(), net::HostId{});
  for (const net::HostId h : core::ids<net::HostId>(net.num_hosts())) hosts[h.v()] = h;
  const auto demand = collective::DemandMatrix::from_schedule(runner.current_schedule(),
                                                              hosts, net.num_hosts());
  const fp::ThreeLevelAnalyticalModel model{net.info(), 4096, net::kHeaderBytes};
  fps.set_prediction(model.predict(demand, net.routing()));

  if (fault_tier == 1) {
    net.set_link_fault(net::LeafId{6}, net::UplinkIndex{2}, net::FaultSpec::random_drop(drop));
  } else if (fault_tier == 2) {
    net.set_core_link_fault(/*pod=*/1, /*spine=*/2, /*k=*/3,
                            net::FaultSpec::random_drop(drop));
  }

  runner.start();
  sim.run();
  fps.flush();

  Result r;
  for (const double d : fps.leaf_tier().per_iteration_max_dev()) {
    r.leaf_dev = std::max(r.leaf_dev, d);
  }
  for (const double d : fps.spine_tier().per_iteration_max_dev()) {
    r.spine_dev = std::max(r.spine_dev, d);
  }
  r.leaf_verdict = verdict(r.leaf_dev, fps.leaf_tier().faulty_results(), "leaf", "spine idx");
  r.spine_verdict =
      verdict(r.spine_dev, fps.spine_tier().faulty_results(), "podspine", "core");
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "EXT-3LEVEL: two-tier FlowPulse on a 3-level Clos (4 pods x 4 leaves x 4 spines)",
      "Paper §7: monitor spine-leaf links at leaves, core-spine links at pod spines.");

  exp::Table table({"injected fault", "leaf-tier max dev", "leaf-tier verdict",
                    "spine-tier max dev", "spine-tier verdict"});
  struct Case {
    const char* name;
    int tier;
    double drop;
  };
  for (const Case& c : {Case{"none (clean)", 0, 0.0},
                        Case{"leaf6 <-> podspine2, 4% drop", 1, 0.04},
                        Case{"pod1.spine2 <-> core3, 4% drop", 2, 0.04}}) {
    const Result r = run_case(c.tier, c.drop);
    table.row({c.name, exp::pct(r.leaf_dev), r.leaf_verdict, exp::pct(r.spine_dev),
               r.spine_verdict});
  }
  table.print();

  std::cout << "\nShape check vs paper: clean runs are quiet at both tiers; a leaf-link\n"
               "fault surfaces at the leaf tier with its full drop rate; a core-link\n"
               "fault surfaces at the spine tier while the leaf tier sees only the\n"
               "1/K-diluted echo — both tiers are needed to localize both link classes.\n";
  return 0;
}
