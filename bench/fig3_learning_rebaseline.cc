// FIG3 — "Learning-based prediction model update. FlowPulse learns an
// improved baseline after transient fault recovery."
//
// The learned model takes its baseline from the first training iterations.
// Here a transient gray fault is present during that learning window and
// heals afterwards: the model must recognize the more-even re-balanced
// load as a healed network (not a new fault), replace its baseline, and
// accept subsequent iterations — while still alerting on a genuinely new
// fault later in the run.
#include <string_view>

#include "bench_common.h"

using namespace flowpulse;

namespace {

const char* kind_name(const fp::DetectionResult& r) {
  if (r.unjudged == nullptr) return r.faulty() ? "ALERT" : "ok";
  return std::string_view{r.unjudged} == "learning" ? "learning" : "REBASELINE";
}

}  // namespace

int main() {
  bench::print_header("FIG3: learned baseline update after transient fault recovery",
                      "Paper Fig. 3: after the transient fault heals, the learned model\n"
                      "replaces the poisoned baseline instead of alerting forever.");

  exp::ScenarioConfig cfg = bench::paper_setup(16ull << 20, 12);
  cfg.flowpulse.model = fp::ModelKind::kLearned;
  cfg.flowpulse.learn_iterations = 3;
  cfg.flowpulse.threshold = 0.01;

  const net::LeafId leaf{12};
  const net::UplinkIndex port{5};
  // Transient 6% gray fault during learning; heals around iteration 5.
  exp::NewFault transient = bench::silent_drop(0.06, leaf, port);
  transient.spec.end = sim::Time::microseconds(2200);
  cfg.new_faults.push_back(transient);
  // A genuinely new fault appears on another port near the end.
  exp::NewFault late = bench::silent_drop(0.05, leaf, net::UplinkIndex{9});
  late.spec.start = sim::Time::microseconds(4200);
  cfg.new_faults.push_back(late);

  exp::Scenario scenario{cfg};
  const exp::ScenarioResult result = scenario.run();

  exp::Table table({"iteration", "window", "port " + std::to_string(port.v()) + " bytes",
                    "port 9 bytes", "model outcome", "max dev"});
  const auto& history = scenario.flowpulse().monitor(leaf).history();
  for (const fp::DetectionResult& d : result.detections) {
    if (d.leaf != leaf) continue;
    std::string window = "?";
    if (d.iteration.v() < result.iter_windows.size()) {
      const auto& w = result.iter_windows[d.iteration.v()];
      window = exp::fmt(w.first.us(), 0) + "-" + exp::fmt(w.second.us(), 0) + "us";
    }
    const fp::IterationRecord* rec = nullptr;
    for (const auto& r : history) {
      if (r.iteration == d.iteration) rec = &r;
    }
    table.row({std::to_string(d.iteration.v()), window,
               rec ? exp::fmt(rec->bytes[port.v()], 0) : "-",
               rec ? exp::fmt(rec->bytes[9], 0) : "-", kind_name(d), exp::pct(d.max_rel_dev)});
  }
  table.print();

  std::cout << "\nShape check vs paper: fault-poisoned learning -> healed load re-balances\n"
               "evenly -> REBASELINE (not alert) -> new baseline accepts healthy iterations\n"
               "-> a genuinely new fault later still raises ALERT.\n";
  return 0;
}
