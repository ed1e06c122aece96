// flowpulse_cli: run an arbitrary FlowPulse scenario from the command line
// and optionally export machine-readable results — the "operator tool"
// packaging of the library. Example, one command line wrapped:
//
//   $ ./flowpulse_cli --leaves=32 --spines=16 --bytes=48000000 --iters=4
//                     --fault-leaf=12 --fault-spine=5 --drop=0.015
//                     --json=run.json --alerts=alerts.json --csv=devs.csv
//
// Run with --help for all flags.
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "daemon/flags.h"
#include "daemon/stream_file.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/table.h"

using namespace flowpulse;

namespace {

using daemon::parse_flag;
using daemon::parse_num;

struct CliOptions {
  std::uint32_t leaves = 32, spines = 16, hosts_per_leaf = 1, parallel = 1;
  std::uint64_t bytes = 48'000'000;
  std::uint32_t iters = 4;
  std::string collective = "ring";  // ring | allreduce | allgather | alltoall | hier
  std::string model = "analytical";  // analytical | simulation | learned
  std::string spray = "adaptive";    // adaptive | random | ecmp | flowlet
  std::string fidelity = "packet";   // packet | hybrid | flow
  std::string detector = "threshold";  // threshold | streaming
  double threshold = 0.01;
  double drop = 0.0;
  std::uint32_t fault_leaf = 0, fault_spine = 0;
  std::string fault_kind = "drop";  // drop | blackhole | gilbert
  std::uint32_t preexisting = 0;
  std::uint64_t seed = 1;
  double jitter_us = 1.0;
  std::string json_path, alerts_path, csv_path, dump_path;
  bool help = false;
};

CliOptions parse(int argc, char** argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      o.help = true;
    } else if (parse_num(a, "--leaves", &o.leaves) || parse_num(a, "--spines", &o.spines) ||
               parse_num(a, "--hosts-per-leaf", &o.hosts_per_leaf) ||
               parse_num(a, "--parallel", &o.parallel) || parse_num(a, "--bytes", &o.bytes) ||
               parse_num(a, "--iters", &o.iters) ||
               parse_num(a, "--threshold", &o.threshold) || parse_num(a, "--drop", &o.drop) ||
               parse_num(a, "--fault-leaf", &o.fault_leaf) ||
               parse_num(a, "--fault-spine", &o.fault_spine) ||
               parse_num(a, "--preexisting", &o.preexisting) ||
               parse_num(a, "--seed", &o.seed) || parse_num(a, "--jitter-us", &o.jitter_us) ||
               parse_flag(a, "--collective", &o.collective) ||
               parse_flag(a, "--model", &o.model) || parse_flag(a, "--spray", &o.spray) ||
               parse_flag(a, "--fidelity", &o.fidelity) ||
               parse_flag(a, "--detector", &o.detector) ||
               parse_flag(a, "--fault-kind", &o.fault_kind) ||
               parse_flag(a, "--json", &o.json_path) ||
               parse_flag(a, "--alerts", &o.alerts_path) ||
               parse_flag(a, "--csv", &o.csv_path) ||
               parse_flag(a, "--dump-counters", &o.dump_path)) {
      // parsed
    } else {
      std::cerr << "unknown flag or bad value: " << a << " (try --help)\n";
      std::exit(2);
    }
  }
  return o;
}

// Input the scenario cannot run is refused like a bad flag.
[[noreturn]] void refuse(const std::string& why) {
  std::cerr << why << " (try --help)\n";
  std::exit(2);
}

// The value `text` names among the spellings `flag` accepts.
template <typename T>
T choose(const char* flag, const std::string& text,
         std::initializer_list<std::pair<std::string_view, T>> choices) {
  for (const auto& [name, value] : choices) {
    if (text == name) return value;
  }
  refuse(std::string{"unknown value for "} + flag + ": " + text);
}

void usage() {
  std::cout <<
      R"(flowpulse_cli — run a FlowPulse fault-detection scenario

topology:   --leaves=N --spines=N --hosts-per-leaf=N --parallel=N
            --spray=adaptive|random|ecmp|flowlet
workload:   --collective=ring|allreduce|allgather|alltoall|hier
            --bytes=N --iters=N --jitter-us=F
detection:  --model=analytical|simulation|learned
            --detector=threshold|streaming       (the rule each port is judged
            by, under every model; streaming is the O(1) EWMA z-score rule)
            --threshold=F                        (relative deviation above 0
            that alerts under --detector=threshold, whatever the model;
            streaming judges by its own bounds)
fidelity:   --fidelity=packet|hybrid|flow        (hybrid fast-forwards healthy
            iterations analytically and drops to packets around faults)
faults:     --preexisting=N                      (known disconnected links)
            --fault-leaf=N --fault-spine=N       (silent fault site)
            --drop=F --fault-kind=drop|blackhole|gilbert
output:     --json=FILE --alerts=FILE --csv=FILE
            --dump-counters=FILE                 (finalized counter stream in
            flowpulsed wire format, replayable via flowpulse-bench --stream)
misc:       --seed=N
)";
}

// Each iteration's verdict over its rows' results: FAULT when one alerted,
// ok when one was judged, else why none was ("learning", "re-learning").
std::vector<std::string> iteration_verdicts(const exp::ScenarioResult& result) {
  std::vector<std::string> verdicts(result.per_iter_max_dev.size());
  for (const fp::DetectionResult& d : result.detections) {
    std::string& v = verdicts[d.iteration.v()];
    if (d.faulty()) {
      v = "FAULT";
    } else if (d.unjudged == nullptr) {
      if (v != "FAULT") v = "ok";
    } else if (v.empty()) {
      v = d.unjudged;
    }
  }
  return verdicts;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions o = parse(argc, argv);
  if (o.help) {
    usage();
    return 0;
  }

  using collective::CollectiveKind;
  using FaultKind = net::FaultSpec::Kind;
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{o.leaves, o.spines, o.hosts_per_leaf, o.parallel};
  cfg.collective_bytes = core::Bytes{o.bytes};
  cfg.iterations = o.iters;
  cfg.max_jitter = sim::Time::picoseconds(static_cast<std::int64_t>(o.jitter_us * 1e6));
  cfg.flowpulse.threshold = o.threshold;
  cfg.seed = o.seed;
  cfg.collective = choose<CollectiveKind>("--collective", o.collective,
                                          {{"ring", CollectiveKind::kRingReduceScatter},
                                           {"allreduce", CollectiveKind::kRingAllReduce},
                                           {"allgather", CollectiveKind::kRingAllGather},
                                           {"alltoall", CollectiveKind::kAllToAll},
                                           {"hier", CollectiveKind::kHierarchicalRing}});
  cfg.flowpulse.model = choose<fp::ModelKind>("--model", o.model,
                                              {{"analytical", fp::ModelKind::kAnalytical},
                                               {"simulation", fp::ModelKind::kSimulation},
                                               {"learned", fp::ModelKind::kLearned}});
  cfg.fidelity.mode = choose<fp::FidelityMode>("--fidelity", o.fidelity,
                                               {{"packet", fp::FidelityMode::kPacket},
                                                {"hybrid", fp::FidelityMode::kHybrid},
                                                {"flow", fp::FidelityMode::kFlow}});
  cfg.flowpulse.detector = choose<fp::DetectorKind>(
      "--detector", o.detector,
      {{"threshold", fp::DetectorKind::kThreshold}, {"streaming", fp::DetectorKind::kStreaming}});
  cfg.fabric.spray = choose<net::SprayPolicy>("--spray", o.spray,
                                              {{"adaptive", net::SprayPolicy::kAdaptive},
                                               {"random", net::SprayPolicy::kRandom},
                                               {"ecmp", net::SprayPolicy::kEcmp},
                                               {"flowlet", net::SprayPolicy::kFlowlet}});
  const FaultKind fault_kind = choose<FaultKind>("--fault-kind", o.fault_kind,
                                                 {{"drop", FaultKind::kRandomDrop},
                                                  {"blackhole", FaultKind::kBlackHole},
                                                  {"gilbert", FaultKind::kGilbertElliott}});

  if (o.threshold <= 0.0) refuse("--threshold must be above 0");
  if (o.drop < 0.0 || o.drop > 1.0) refuse("--drop must be within [0, 1]");
  if (o.iters == 0) refuse("--iters must be at least 1");
  if (o.jitter_us < 0.0) refuse("--jitter-us must not be negative");
  const net::TopologyInfo& shape = cfg.fabric.shape;
  if (shape.leaves == 0 || shape.spines == 0 || shape.hosts_per_leaf == 0 ||
      shape.parallel == 0) {
    refuse("--leaves, --spines, --hosts-per-leaf and --parallel must be at least 1");
  }
  if (o.fault_leaf >= shape.leaves || o.fault_spine >= shape.uplinks_per_leaf()) {
    refuse("--fault-leaf must be below --leaves, and --fault-spine below --spines x --parallel");
  }
  if (cfg.collective == CollectiveKind::kAllToAll && shape.num_hosts() < 2) {
    refuse("--collective=alltoall needs at least 2 hosts");
  }

  for (std::uint32_t i = 0; i < o.preexisting; ++i) {
    cfg.preexisting.emplace_back(net::LeafId{(3 + 7 * i) % o.leaves},
                                 net::UplinkIndex{(1 + 3 * i) % (o.spines * o.parallel)});
  }
  if (o.drop > 0.0 || fault_kind == FaultKind::kBlackHole) {
    exp::NewFault f;
    f.leaf = net::LeafId{o.fault_leaf};
    f.uplink = net::UplinkIndex{o.fault_spine};
    f.where = exp::NewFault::Where::kBoth;
    if (fault_kind == FaultKind::kBlackHole) {
      f.spec = net::FaultSpec::black_hole();
    } else if (fault_kind == FaultKind::kGilbertElliott) {
      f.spec = net::FaultSpec::gilbert_elliott(o.drop, 20.0);
    } else {
      f.spec = net::FaultSpec::random_drop(o.drop);
    }
    cfg.new_faults.push_back(f);
  }

  exp::Scenario scenario{cfg};
  const exp::ScenarioResult result = scenario.run();

  exp::Table table({"iteration", "max port deviation", "verdict"});
  const std::vector<std::string> verdicts = iteration_verdicts(result);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    table.row({std::to_string(i), exp::pct(result.per_iter_max_dev[i]),
               verdicts[i].empty() ? "-" : verdicts[i]});
  }
  table.print();
  std::cout << result.iterations_completed << " iterations, "
            << result.transport_stats.data_packets_sent << " data packets ("
            << result.transport_stats.retx_packets_sent << " retx), " << result.events
            << " events in " << result.wall_seconds << "s\n";
  if (result.fidelity.enabled) {
    std::cout << "fidelity " << fp::fidelity_mode_name(result.fidelity.mode) << ": "
              << result.fidelity.packet_iterations << " packet + "
              << result.fidelity.flow_iterations << " flow iterations ("
              << result.fidelity.demotions << " demotions, " << result.fidelity.promotions
              << " promotions)\n";
  }

  const auto faulty = scenario.flowpulse().faulty_results();
  for (const fp::DetectionResult& d : faulty) {
    for (const fp::PortAlert& a : d.alerts) {
      if (a.observed >= a.predicted) continue;
      std::cout << "ALERT leaf " << d.leaf << " port " << a.uplink << " iteration "
                << d.iteration << ": " << exp::pct(a.rel_dev) << " below prediction ("
                << exp::verdict_name(a.localization.verdict) << ")\n";
    }
  }

  bool io_ok = true;
  if (!o.json_path.empty()) io_ok &= exp::write_file(o.json_path, exp::to_json(result));
  if (!o.alerts_path.empty()) {
    io_ok &= exp::write_file(o.alerts_path, exp::alerts_to_json(faulty));
  }
  if (!o.csv_path.empty()) {
    io_ok &= exp::write_file(o.csv_path, exp::deviations_to_csv(result));
  }
  if (!o.dump_path.empty()) {
    // Export what the leaf switches measured, as the frames a reporter
    // would send flowpulsed — the bridge from simulation to deployment.
    daemon::CounterStream stream;
    stream.hello.topo = cfg.fabric.shape;
    stream.hello.job = cfg.flowpulse.job;
    stream.hello.first_leaf = net::LeafId{0};
    stream.hello.leaf_count = cfg.fabric.shape.leaves;
    if (scenario.prediction() != nullptr) stream.prediction = *scenario.prediction();
    for (std::uint32_t l = 0; l < cfg.fabric.shape.leaves; ++l) {
      const auto& history = scenario.flowpulse().monitor(net::LeafId{l}).history();
      stream.records.insert(stream.records.end(), history.begin(), history.end());
    }
    daemon::sort_records(stream.records);
    std::string dump_err;
    if (!daemon::write_stream_file(o.dump_path, stream, &dump_err)) {
      std::cerr << dump_err << "\n";
      io_ok = false;
    } else {
      std::cout << "dumped " << stream.records.size() << " counter records ("
                << cfg.fabric.shape.leaves << " leaves) to " << o.dump_path << "\n";
    }
  }
  if (!io_ok) {
    std::cerr << "failed to write one of the output files\n";
    return 1;
  }
  return 0;
}
