// §7 extension: dynamic demand matrices (AlltoAll whose per-pair bytes
// change every iteration) monitored via per-iteration prediction recompute.
#include <gtest/gtest.h>

#include <algorithm>

#include "collective/runner.h"
#include "exp/scenario.h"
#include "flowpulse/dynamic_model.h"

namespace flowpulse::fp {
namespace {

struct DynamicRig {
  explicit DynamicRig(std::uint64_t seed, std::uint32_t iterations,
                      std::vector<std::pair<net::LeafId, net::UplinkIndex>> preexisting = {},
                      std::vector<exp::NewFault> faults = {},
                      DetectorKind rule = DetectorKind::kThreshold) {
    exp::ScenarioConfig cfg;
    cfg.fabric.shape = net::TopologyInfo{4, 2, 1, 1};
    cfg.collective = collective::CollectiveKind::kAllToAll;
    cfg.collective_bytes = core::Bytes{12ull << 20};  // placeholder; generator overrides
    cfg.iterations = 0;                  // we drive our own runner
    cfg.flowpulse.model = ModelKind::kDynamic;
    cfg.flowpulse.detector = rule;
    cfg.preexisting = std::move(preexisting);
    cfg.new_faults = std::move(faults);
    cfg.seed = seed;
    // Random unequal demands break the rotation staggering, so transient
    // incast queues form; without congestion control (future work, as in
    // the paper §7) a generous RTO floor avoids duplicate storms that
    // would pollute the measured volumes.
    // (500 µs covers even the degraded case where a known disconnect pins
    // all of a leaf's traffic onto one spine and its queue drains slowly.)
    cfg.transport.rto = sim::Time::microseconds(500);
    scenario = std::make_unique<exp::Scenario>(cfg);

    collective::CollectiveConfig cc;
    cc.hosts = {net::HostId{0}, net::HostId{1}, net::HostId{2}, net::HostId{3}};
    cc.iterations = iterations;
    // Per-iteration random demand: 1-3 MiB per ordered pair.
    cc.schedule_generator = [](std::uint32_t, sim::Rng& rng) {
      return collective::all_to_all_random(4, core::Bytes{1ull << 20}, core::Bytes{3ull << 20}, rng);
    };
    runner = std::make_unique<collective::CollectiveRunner>(
        scenario->simulator(), scenario->transports(), std::move(cc));

    tracker = std::make_unique<DynamicDemandTracker>(
        scenario->fabric().info(), scenario->fabric().routing(), 4096, net::kHeaderBytes);
    tracker->attach(*runner, scenario->flowpulse());
  }

  void run() {
    runner->start();
    scenario->simulator().run();
    scenario->flowpulse().flush();
  }

  std::unique_ptr<exp::Scenario> scenario;
  std::unique_ptr<collective::CollectiveRunner> runner;
  std::unique_ptr<DynamicDemandTracker> tracker;
};

TEST(DynamicModel, TracksEveryIteration) {
  DynamicRig rig{7, 3};
  rig.run();
  EXPECT_TRUE(rig.runner->finished());
  EXPECT_EQ(rig.tracker->tracked_iterations(), 3u);
  EXPECT_NE(rig.tracker->prediction_for(net::IterIndex{0}), nullptr);
  EXPECT_EQ(rig.tracker->prediction_for(net::IterIndex{99}), nullptr);
}

TEST(DynamicModel, CleanRunStaysUnderThreshold) {
  DynamicRig rig{11, 3};
  rig.run();
  const auto& results = rig.scenario->flowpulse().results();
  ASSERT_FALSE(results.empty());
  for (const DetectionResult& r : results) {
    EXPECT_LT(r.max_rel_dev, 0.01)
        << "iteration " << r.iteration << " leaf " << r.leaf;
  }
}

TEST(DynamicModel, KnownFaultPlusSelfCongestionSkewsAnalyticalSplit) {
  // Documented limitation (DESIGN.md / EXPERIMENTS.md): with a known
  // disconnect, ALL traffic toward the affected leaf pins to the surviving
  // spines, their queues grade up, and congestion-adaptive spraying
  // compensates by steering OTHER destinations' packets away — equalizing
  // total port load but breaking the analytical model's per-destination
  // even-split assumption. The paper's ring workload never self-congests,
  // so its evaluation does not hit this; a self-congesting AlltoAll does.
  // The per-sender totals remain exact (symmetry holds per sender), only
  // the split across surviving spines shifts.
  DynamicRig rig{13, 3, {{net::LeafId{2}, net::UplinkIndex{1}}}};
  rig.run();
  double worst = 0.0;
  for (const DetectionResult& r : rig.scenario->flowpulse().results()) {
    worst = std::max(worst, r.max_rel_dev);
  }
  // The skew is real and measurable, yet bounded well below a hard fault's
  // signature (a black hole would deviate ~100%).
  EXPECT_GT(worst, 0.01);
  EXPECT_LT(worst, 0.30);
}

/// A 5% drop under per-iteration random demand is flagged as a shortfall
/// on the faulted port under `rule`. The z-rule judges each iteration's
/// installed prediction with its spread reset, i.e. at its floor.
void detects_silent_fault_under_changing_demand(DetectorKind rule) {
  exp::NewFault f;
  f.leaf = net::LeafId{1};
  f.uplink = net::UplinkIndex{0};
  f.where = exp::NewFault::Where::kDownlink;
  f.spec = net::FaultSpec::random_drop(0.05);
  DynamicRig rig{17, 3, {}, {f}, rule};
  rig.run();
  bool flagged = false;
  for (const DetectionResult& r : rig.scenario->flowpulse().results()) {
    for (const PortAlert& a : r.alerts) {
      if (r.leaf == net::LeafId{1} && a.uplink == net::UplinkIndex{0} &&
          a.observed < a.predicted) flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(DynamicModel, DetectsSilentFaultUnderChangingDemand) {
  for (const DetectorKind rule : {DetectorKind::kThreshold, DetectorKind::kStreaming}) {
    SCOPED_TRACE(rule == DetectorKind::kStreaming ? "streaming" : "threshold");
    detects_silent_fault_under_changing_demand(rule);
  }
}

}  // namespace
}  // namespace flowpulse::fp
