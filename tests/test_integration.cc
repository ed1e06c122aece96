// End-to-end integration: full fabric + transport + collective + FlowPulse.
// These are the paper's claims as executable checks (on reduced scale so
// the suite stays fast; the bench binaries run paper scale).
#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "baseline/spatial_symmetry.h"
#include "exp/metrics.h"
#include "exp/scenario.h"
#include "exp/trials.h"
#include "golden_scenario.h"

namespace flowpulse::exp {
namespace {

using collective::CollectiveKind;

/// 8 leaves × 4 spines keeps integration runs fast while preserving the
/// paper's structure (one host per leaf, ring over all hosts).
ScenarioConfig small_scenario(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective = CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{8ull << 20};
  cfg.iterations = 4;
  cfg.seed = seed;
  return cfg;
}

NewFault downlink_drop(net::LeafId leaf, net::UplinkIndex u, double rate) {
  NewFault f;
  f.leaf = leaf;
  f.uplink = u;
  f.where = NewFault::Where::kDownlink;
  f.spec = net::FaultSpec::random_drop(rate);
  return f;
}

TEST(Scenario, CleanRunHasNoAlerts) {
  Scenario s{small_scenario()};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  for (const double dev : r.per_iter_max_dev) {
    EXPECT_LT(dev, 0.01) << "temporal symmetry must hold within the 1% threshold";
  }
  EXPECT_TRUE(s.flowpulse().faulty_results().empty());
}

TEST(Scenario, CleanRunIsDeterministicGivenSeed) {
  Scenario a{small_scenario(42)};
  Scenario b{small_scenario(42)};
  const ScenarioResult ra = a.run();
  const ScenarioResult rb = b.run();
  ASSERT_EQ(ra.per_iter_max_dev.size(), rb.per_iter_max_dev.size());
  for (std::size_t i = 0; i < ra.per_iter_max_dev.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.per_iter_max_dev[i], rb.per_iter_max_dev[i]);
  }
  EXPECT_EQ(ra.events, rb.events);
  EXPECT_EQ(ra.transport_stats.retx_packets_sent, rb.transport_stats.retx_packets_sent);
}

TEST(Scenario, DetectsSilentDownlinkDrop) {
  ScenarioConfig cfg = small_scenario();
  cfg.new_faults.push_back(downlink_drop(net::LeafId{3}, net::UplinkIndex{2}, 0.05));
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  ASSERT_EQ(r.iterations_completed, 4u);
  // Every iteration runs under the fault and must be flagged.
  for (const double dev : r.per_iter_max_dev) EXPECT_GT(dev, 0.01);
  // The alert fires at the right leaf and port.
  bool found = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf == net::LeafId{3} && a.uplink == net::UplinkIndex{2} && a.observed < a.predicted) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scenario, DetectsSilentUplinkDropAtRemoteLeaf) {
  // Ring traffic gives each port a single sender, so local and remote link
  // faults are indistinguishable there (the paper's Fig. 4 needs two
  // senders through the same spine). AlltoAll provides them: a fault on
  // leaf 1's uplink to spine 0 must be blamed on the REMOTE leaf-1 link by
  // every other leaf, which still receives the other senders via spine 0.
  ScenarioConfig cfg = small_scenario();
  cfg.fabric.shape = net::TopologyInfo{4, 2, 1, 1};
  cfg.collective = collective::CollectiveKind::kAllToAll;
  cfg.collective_bytes = core::Bytes{24ull << 20};  // 2 MiB per ordered pair
  cfg.iterations = 2;
  NewFault f = downlink_drop(net::LeafId{1}, net::UplinkIndex{0}, 0.08);
  f.where = NewFault::Where::kUplink;
  cfg.new_faults.push_back(f);
  Scenario s{cfg};
  s.run();
  bool remote_localized = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf != net::LeafId{1} && a.uplink == net::UplinkIndex{0} &&
          a.localization.verdict == fp::Localization::Verdict::kRemoteLinks &&
          a.localization.suspect_senders == std::vector<net::LeafId>{net::LeafId{1}}) {
        remote_localized = true;
      }
    }
  }
  EXPECT_TRUE(remote_localized);
}

TEST(Scenario, DetectsBlackHole) {
  ScenarioConfig cfg = small_scenario();
  NewFault f;
  f.leaf = net::LeafId{5};
  f.uplink = net::UplinkIndex{1};
  f.where = NewFault::Where::kBoth;
  f.spec = net::FaultSpec::black_hole();
  cfg.new_faults.push_back(f);
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);  // transport routes around it
  for (const double dev : r.per_iter_max_dev) EXPECT_GT(dev, 0.5);
}

TEST(Scenario, LocalizesLocalDownlinkFault) {
  ScenarioConfig cfg = small_scenario();
  cfg.new_faults.push_back(downlink_drop(net::LeafId{6}, net::UplinkIndex{0}, 0.05));
  Scenario s{cfg};
  s.run();
  bool local = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf == net::LeafId{6} && a.uplink == net::UplinkIndex{0} &&
          a.localization.verdict == fp::Localization::Verdict::kLocalLink) {
        local = true;
      }
    }
  }
  EXPECT_TRUE(local);
}

TEST(Scenario, PreexistingFaultsDoNotFalseAlarm) {
  // The paper's core argument: the model accounts for known faults, so
  // pre-existing disconnected links cause no alerts.
  ScenarioConfig cfg = small_scenario();
  cfg.preexisting = {{net::LeafId{2}, net::UplinkIndex{1}},
                     {net::LeafId{5}, net::UplinkIndex{3}}};
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, DetectsNewFaultDespitePreexisting) {
  ScenarioConfig cfg = small_scenario();
  cfg.preexisting = {{net::LeafId{2}, net::UplinkIndex{1}}};
  cfg.new_faults.push_back(downlink_drop(net::LeafId{2}, net::UplinkIndex{3}, 0.06));  // same leaf, other port
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  for (const double dev : r.per_iter_max_dev) EXPECT_GT(dev, 0.01);
  bool found = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf == net::LeafId{2} && a.uplink == net::UplinkIndex{3}) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scenario, SpatialSymmetryBaselineFalseAlarmsOnPreexisting) {
  // Same clean-but-degraded network: FlowPulse stays quiet (previous test),
  // while the spatial-symmetry strategy flags every iteration.
  ScenarioConfig cfg = small_scenario();
  cfg.preexisting = {{net::LeafId{2}, net::UplinkIndex{1}}};
  Scenario s{cfg};
  s.run();
  const auto& history = s.flowpulse().monitor(net::LeafId{2}).history();
  ASSERT_FALSE(history.empty());
  for (const fp::IterationRecord& rec : history) {
    EXPECT_TRUE(baseline::spatial_symmetry_check(rec, 0.01).flagged);
  }
}

TEST(Scenario, SimulationModelPredictsAsWellAsAnalytical) {
  ScenarioConfig cfg = small_scenario();
  cfg.flowpulse.model = fp::ModelKind::kSimulation;
  cfg.preexisting = {{net::LeafId{1}, net::UplinkIndex{2}}};
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, SimulationModelDetectsFault) {
  ScenarioConfig cfg = small_scenario();
  cfg.flowpulse.model = fp::ModelKind::kSimulation;
  cfg.new_faults.push_back(downlink_drop(net::LeafId{1}, net::UplinkIndex{1}, 0.05));
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  for (const double dev : r.per_iter_max_dev) EXPECT_GT(dev, 0.01);
}

/// A learned-model run whose 5% drop appears after the learning window
/// (iterations are ~120 µs here) alerts at the faulted leaf under `rule`.
void learned_model_detects_mid_run_fault(fp::DetectorKind rule) {
  ScenarioConfig cfg = small_scenario();
  cfg.iterations = 8;
  cfg.flowpulse.model = fp::ModelKind::kLearned;
  cfg.flowpulse.learn_iterations = 3;
  cfg.flowpulse.detector = rule;
  NewFault f = downlink_drop(net::LeafId{4}, net::UplinkIndex{2}, 0.05);
  f.spec.start = sim::Time::microseconds(600);
  cfg.new_faults.push_back(f);
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 8u);
  bool alerted = false;
  for (const fp::DetectionResult& d : r.detections) {
    if (d.leaf == net::LeafId{4} && d.faulty()) alerted = true;
  }
  EXPECT_TRUE(alerted);
}

TEST(Scenario, LearnedModelDetectsMidRunFault) {
  for (const fp::DetectorKind rule : {fp::DetectorKind::kThreshold, fp::DetectorKind::kStreaming}) {
    SCOPED_TRACE(rule == fp::DetectorKind::kStreaming ? "streaming" : "threshold");
    learned_model_detects_mid_run_fault(rule);
  }
}

/// A learned result that re-learned its baseline instead of alerting.
bool relearned(const fp::DetectionResult& d) {
  return d.unjudged != nullptr && std::string_view{d.unjudged} == "re-learning";
}

TEST(Scenario, LearnedModelRebaselinesAfterTransientFault) {
  // Fig. 3 end-to-end: fault poisons the learning window, heals, model
  // re-baselines instead of alerting forever.
  ScenarioConfig cfg = small_scenario();
  cfg.iterations = 10;
  cfg.flowpulse.model = fp::ModelKind::kLearned;
  cfg.flowpulse.learn_iterations = 2;
  NewFault f = downlink_drop(net::LeafId{4}, net::UplinkIndex{2}, 0.08);
  f.spec.end = sim::Time::microseconds(300);  // heals after ~2 iterations
  cfg.new_faults.push_back(f);
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  bool rebaselined = false;
  for (const fp::DetectionResult& d : r.detections) {
    if (d.leaf == net::LeafId{4} && relearned(d)) rebaselined = true;
  }
  EXPECT_TRUE(rebaselined);
  // After re-baselining, the healthy iterations must be accepted again.
  bool ok_after = false;
  std::uint32_t rebaseline_iter = 0;
  for (const fp::DetectionResult& d : r.detections) {
    if (d.leaf == net::LeafId{4} && relearned(d)) rebaseline_iter = d.iteration.v();
  }
  for (const fp::DetectionResult& d : r.detections) {
    if (d.leaf == net::LeafId{4} && d.iteration.v() > rebaseline_iter + 2 &&
        d.unjudged == nullptr && !d.faulty()) {
      ok_after = true;
    }
  }
  EXPECT_TRUE(ok_after);
}

TEST(Scenario, SimulationModelPredictionIsPinned) {
  // The simulation-based model installs the mean of a nested fault-free
  // run's records, bit for bit. Two hosts per leaf and a known failure give
  // the ports several senders and uneven shares.
  ScenarioConfig cfg = small_scenario();
  cfg.flowpulse.model = fp::ModelKind::kSimulation;
  cfg.fabric.shape.hosts_per_leaf = 2;
  cfg.preexisting.emplace_back(net::LeafId{2}, net::UplinkIndex{1});
  const Scenario s{cfg};
  const fp::PortLoadMap* prediction = s.prediction();
  ASSERT_NE(prediction, nullptr);
  std::ostringstream text;
  text << std::hexfloat;
  for (const net::LeafId l : core::ids<net::LeafId>(prediction->leaves())) {
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(prediction->uplinks())) {
      const fp::PortLoad& load = prediction->at(l, u);
      text << load.total << ':';
      for (const double v : load.by_src_leaf) text << v << ',';
      text << ';';
    }
  }
  EXPECT_EQ(testing::fnv1a64(text.str()), 2212169527490193183ull);
}

TEST(Scenario, FullRingAllReduceAlsoMonitorable) {
  ScenarioConfig cfg = small_scenario();
  cfg.collective = CollectiveKind::kRingAllReduce;
  cfg.new_faults.push_back(downlink_drop(net::LeafId{0}, net::UplinkIndex{0}, 0.04));
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  for (const double dev : r.per_iter_max_dev) EXPECT_GT(dev, 0.01);
}

TEST(Scenario, AllToAllMonitorable) {
  ScenarioConfig cfg = small_scenario();
  cfg.collective = CollectiveKind::kAllToAll;
  // Large enough that per-(sender, port) spray quantization (a couple of
  // packets out of ~770 per port) sits well under the 1% threshold — the
  // paper's Fig. 5(c) point that small collectives are noisy, in reverse.
  cfg.collective_bytes = core::Bytes{96ull << 20};
  cfg.iterations = 3;
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 3u);
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, HierarchicalRingMonitorableWithManyHostsPerLeaf) {
  // 8 leaves x 4 hosts: the locality-optimized collective keeps exactly one
  // non-local sender/receiver per leaf (the leaders' ring), so temporal
  // symmetry and the analytical prediction hold even with 4 hosts per leaf.
  ScenarioConfig cfg = small_scenario();
  cfg.fabric.shape = net::TopologyInfo{8, 4, 4, 1};
  cfg.collective = CollectiveKind::kHierarchicalRing;
  cfg.collective_bytes = core::Bytes{8ull << 20};
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, HierarchicalRingDetectsSilentFault) {
  ScenarioConfig cfg = small_scenario();
  cfg.fabric.shape = net::TopologyInfo{8, 4, 4, 1};
  cfg.collective = CollectiveKind::kHierarchicalRing;
  cfg.collective_bytes = core::Bytes{8ull << 20};
  cfg.new_faults.push_back(downlink_drop(net::LeafId{3}, net::UplinkIndex{2}, 0.05));
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  bool found = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf == net::LeafId{3} && a.uplink == net::UplinkIndex{2} && a.observed < a.predicted) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scenario, JitterDoesNotBreakTemporalSymmetry) {
  // §4: with one source/destination per leaf, start jitter must not move
  // the per-port volumes (the spraying happens at the sender's leaf).
  ScenarioConfig cfg = small_scenario();
  cfg.max_jitter = sim::Time::microseconds(20);
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, PrioritizedBackgroundJobPreservesSymmetry) {
  // §5.1: a heavy untagged background job at lower priority must not
  // perturb the measured collective's per-port volumes.
  ScenarioConfig cfg = small_scenario();
  cfg.background.bytes = core::Bytes{4ull << 20};
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  for (const double dev : r.per_iter_max_dev) EXPECT_LT(dev, 0.01);
}

TEST(Scenario, BackgroundJobDoesNotMaskFaultDetection) {
  ScenarioConfig cfg = small_scenario();
  cfg.background.bytes = core::Bytes{4ull << 20};
  cfg.new_faults.push_back(downlink_drop(net::LeafId{3}, net::UplinkIndex{2}, 0.05));
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  EXPECT_EQ(r.iterations_completed, 4u);
  bool found = false;
  for (const fp::DetectionResult& d : s.flowpulse().faulty_results()) {
    for (const fp::PortAlert& a : d.alerts) {
      if (d.leaf == net::LeafId{3} && a.uplink == net::UplinkIndex{2} && a.observed < a.predicted) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Scenario, GroundTruthWindowsMatchFaultSchedule) {
  ScenarioConfig cfg = small_scenario();
  NewFault f = downlink_drop(net::LeafId{3}, net::UplinkIndex{2}, 0.05);
  f.spec.start = sim::Time::milliseconds(100);  // never active
  cfg.new_faults.push_back(f);
  Scenario s{cfg};
  const ScenarioResult r = s.run();
  for (const std::uint8_t active : r.iter_fault_active) EXPECT_EQ(active, 0);
}

TEST(Metrics, ClassifyCountsCorrectly) {
  std::vector<TrialSamples> trials(1);
  trials[0].dev = {0.002, 0.02, 0.005, 0.03};
  trials[0].truth = {0, 0, 1, 1};
  const Rates r = classify(trials, 0.01);
  EXPECT_EQ(r.tn, 1u);
  EXPECT_EQ(r.fp, 1u);
  EXPECT_EQ(r.fn, 1u);
  EXPECT_EQ(r.tp, 1u);
  EXPECT_DOUBLE_EQ(r.fpr(), 0.5);
  EXPECT_DOUBLE_EQ(r.fnr(), 0.5);
}

TEST(Metrics, RocSweepMonotonicInThreshold) {
  std::vector<TrialSamples> trials(1);
  for (int i = 0; i < 100; ++i) {
    trials[0].dev.push_back(0.001 * i);
    trials[0].truth.push_back(i >= 50);
  }
  const auto points = roc_sweep(trials, {0.01, 0.03, 0.08});
  // Raising the threshold can only reduce positives.
  EXPECT_GE(points[0].rates.fp + points[0].rates.tp,
            points[1].rates.fp + points[1].rates.tp);
  EXPECT_GE(points[1].rates.fp + points[1].rates.tp,
            points[2].rates.fp + points[2].rates.tp);
}

TEST(Metrics, NoiseFloorFromCleanTrials) {
  std::vector<TrialSamples> trials(2);
  trials[0].dev = {0.001, 0.004};
  trials[0].truth = {0, 0};
  trials[1].dev = {0.009, 0.002};
  trials[1].truth = {0, 0};
  EXPECT_DOUBLE_EQ(noise_floor(trials), 0.009);
}

}  // namespace
}  // namespace flowpulse::exp
