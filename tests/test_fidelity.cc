// Hybrid-fidelity engine + O(1) streaming detector.
//
// Three contracts are pinned here:
//  * StreamingDetector is closed-state: judging arbitrarily many iterations
//    allocates nothing after construction, its EWMA/z-score math matches a
//    brute-force reference, and an alerting port freezes its baseline.
//  * Hybrid mode is verdict-equivalent to packet mode: same flagged
//    iteration (±1), same localized link, same final mitigation action — on
//    both golden scenarios and a seeded fault sweep.
//  * Fast-forwarded runs are cheap: flow-dominated runs execute an order of
//    magnitude fewer simulator events than packet runs of the same config.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/scenario.h"
#include "flowpulse/fastforward.h"
#include "flowpulse/streaming_detector.h"
#include "golden_scenario.h"

namespace flowpulse {
namespace {

using fp::DetectionResult;
using fp::IterationRecord;
using fp::StreamingConfig;
using fp::StreamingDetector;

// ---------------------------------------------------------------------------
// Streaming detector unit tests
// ---------------------------------------------------------------------------

// One-leaf, two-port record with a single remote sender (leaf 1).
IterationRecord make_record(std::uint32_t iteration, double port0, double port1) {
  IterationRecord rec;
  rec.leaf = net::LeafId{0};
  rec.iteration = net::IterIndex{iteration};
  rec.bytes = {port0, port1};
  rec.by_src = {{0.0, port0}, {0.0, port1}};
  return rec;
}

// Deterministic noise in [-1, 1): tiny xorshift, no <random> involvement.
double noise(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return static_cast<double>(state % 20001) / 10000.0 - 1.0;
}

TEST(StreamingDetector, StateIsConstantSizeAcrossLongRuns) {
  StreamingDetector det{net::LeafId{0}, 2, 2, StreamingConfig{}};
  std::uint64_t s = 42;
  // Absorb warmup, then record the state footprint.
  for (std::uint32_t i = 0; i < 5; ++i) {
    (void)det.observe(make_record(i, 1e6 * (1.0 + 0.002 * noise(s)), 1e6));
  }
  const std::size_t frozen = det.state_bytes();
  for (std::uint32_t i = 5; i < 2000; ++i) {
    (void)det.observe(make_record(i, 1e6 * (1.0 + 0.002 * noise(s)), 1e6));
    ASSERT_EQ(det.state_bytes(), frozen) << "state grew at iteration " << i;
  }
}

TEST(StreamingDetector, EwmaMatchesBruteForceReference) {
  StreamingConfig cfg;
  cfg.alpha = 0.25;
  cfg.warmup_iterations = 1;
  StreamingDetector det{net::LeafId{0}, 2, 2, cfg};
  std::uint64_t s = 7;
  std::vector<double> xs;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const double x = 1e6 * (1.0 + 0.001 * noise(s));
    xs.push_back(x);
    (void)det.observe(make_record(i, x, 1e6));
  }
  // Brute-force EWMA mean: full weighted sum over the entire history.
  double ref_mean = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) {
    ref_mean = ref_mean + cfg.alpha * (xs[i] - ref_mean);
  }
  EXPECT_NEAR(det.mean(net::UplinkIndex{0}), ref_mean, 1e-6 * ref_mean);
  // The EWMA variance of iid noise with sigma must land near sigma^2
  // (West's recursion has expectation sigma^2 in steady state). Loose
  // bounds: the estimate is itself noisy.
  const double sigma = 1e6 * 0.001 * std::sqrt(1.0 / 3.0);  // uniform [-1,1] scaled
  const double est_sigma = std::sqrt(det.variance(net::UplinkIndex{0}));
  EXPECT_GT(est_sigma, 0.2 * sigma);
  EXPECT_LT(est_sigma, 5.0 * sigma);
}

TEST(StreamingDetector, FlagsShortfallWhereWindowedReferenceDoes) {
  StreamingConfig cfg;
  StreamingDetector det{net::LeafId{0}, 2, 2, cfg};
  std::uint64_t s = 3;
  std::vector<double> history;
  // Healthy phase: no alerts once warmed up.
  for (std::uint32_t i = 0; i < 30; ++i) {
    const double x = 1e6 * (1.0 + 0.002 * noise(s));
    history.push_back(x);
    const DetectionResult r = det.observe(make_record(i, x, 1e6));
    EXPECT_FALSE(r.faulty()) << "false alert at healthy iteration " << i;
  }
  // 10% shortfall. Brute-force reference: sample mean/std over the healthy
  // window must put the faulty observation beyond the same z threshold.
  const double faulty = 0.9e6;
  double mean = 0.0;
  for (const double x : history) mean += x;
  mean /= static_cast<double>(history.size());
  double var = 0.0;
  for (const double x : history) var += (x - mean) * (x - mean);
  var /= static_cast<double>(history.size());
  const double ref_z = (faulty - mean) / std::sqrt(var);
  ASSERT_LT(ref_z, -StreamingDetector::kZThreshold) << "reference would not flag this drop";

  const DetectionResult r = det.observe(make_record(30, faulty, 1e6));
  ASSERT_TRUE(r.faulty());
  ASSERT_EQ(r.alerts.size(), 1u);
  EXPECT_EQ(r.alerts[0].uplink, net::UplinkIndex{0});
  EXPECT_LT(r.alerts[0].observed, r.alerts[0].predicted);  // shortfall
  // Sole sender short on the port → local-link verdict.
  EXPECT_EQ(r.alerts[0].localization.verdict, fp::Localization::Verdict::kLocalLink);
}

TEST(StreamingDetector, AlertFreezesBaselineAgainstPoisoning) {
  StreamingDetector det{net::LeafId{0}, 2, 2, StreamingConfig{}};
  std::uint64_t s = 11;
  for (std::uint32_t i = 0; i < 20; ++i) {
    (void)det.observe(make_record(i, 1e6 * (1.0 + 0.002 * noise(s)), 1e6));
  }
  const double healthy_mean = det.mean(net::UplinkIndex{0});
  // A persistent 15% shortfall must keep alerting: an unfrozen EWMA would
  // adapt to the fault within a few iterations and go quiet.
  for (std::uint32_t i = 20; i < 40; ++i) {
    const DetectionResult r = det.observe(make_record(i, 0.85e6, 1e6));
    ASSERT_TRUE(r.faulty()) << "baseline absorbed the fault at iteration " << i;
  }
  EXPECT_NEAR(det.mean(net::UplinkIndex{0}), healthy_mean, 1e-9 * healthy_mean);
}

TEST(StreamingDetector, SeededPredictionAlertsFromIterationZero) {
  fp::PortLoadMap prediction{2, 2};
  prediction.add(net::LeafId{0}, net::UplinkIndex{0}, net::LeafId{1}, 1e6);
  prediction.add(net::LeafId{0}, net::UplinkIndex{1}, net::LeafId{1}, 1e6);
  StreamingDetector det{net::LeafId{0}, 2, 2, StreamingConfig{}};
  det.seed(prediction);
  const DetectionResult r = det.observe(make_record(0, 0.9e6, 1e6));
  ASSERT_TRUE(r.faulty());
  EXPECT_EQ(r.alerts[0].uplink, net::UplinkIndex{0});
}

TEST(FlowPulseSystemStreaming, SelectableDetectorProducesResults) {
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.flowpulse.detector = fp::DetectorKind::kStreaming;
  exp::Scenario scenario{cfg};
  const exp::ScenarioResult result = scenario.run();
  EXPECT_EQ(result.iterations_completed, cfg.iterations);
  EXPECT_FALSE(result.detections.empty());
  // The seeded baseline must flag the golden scenario's gray downlink.
  bool flagged = false;
  for (const fp::DetectionResult& r : result.detections) {
    for (const fp::PortAlert& a : r.alerts) {
      flagged |= r.leaf == net::LeafId{5} && a.uplink == net::UplinkIndex{3};
    }
  }
  EXPECT_TRUE(flagged);
}

// ---------------------------------------------------------------------------
// Fast-forward model
// ---------------------------------------------------------------------------

TEST(FastForwardModel, StationaryDropAndDuty) {
  EXPECT_DOUBLE_EQ(fp::FastForwardModel::stationary_drop(net::FaultSpec::disconnect()), 1.0);
  EXPECT_DOUBLE_EQ(fp::FastForwardModel::stationary_drop(net::FaultSpec::random_drop(0.1)),
                   0.1);
  // GE long-run loss ≈ bad_fraction × bad_loss.
  const net::FaultSpec ge = net::FaultSpec::gilbert_elliott(0.2, 100.0, 0.5);
  EXPECT_NEAR(fp::FastForwardModel::stationary_drop(ge), 0.1, 1e-9);

  const net::FaultSpec windowed =
      net::FaultSpec::random_drop(1.0, sim::Time::microseconds(10), sim::Time::microseconds(20));
  EXPECT_DOUBLE_EQ(fp::FastForwardModel::active_fraction(windowed, sim::Time::zero(),
                                                         sim::Time::microseconds(40)),
                   0.25);
  const net::FaultSpec flapping = net::FaultSpec::random_drop(1.0).with_flap(
      sim::Time::microseconds(10), sim::Time::microseconds(5));
  EXPECT_DOUBLE_EQ(fp::FastForwardModel::active_fraction(flapping, sim::Time::zero(),
                                                         sim::Time::microseconds(40)),
                   0.5);
}

TEST(FastForwardModel, NoiselessSynthesisMatchesAnalyticalPrediction) {
  // No known failure, the golden's one, and one more: the baseline must be
  // the scenario's own analytical prediction, bit for bit.
  const exp::ScenarioConfig golden = testing::golden_scenario_config();
  std::vector<decltype(golden.preexisting)> cases{{}, golden.preexisting, golden.preexisting};
  cases[2].emplace_back(net::LeafId{6}, net::UplinkIndex{0});
  for (const auto& preexisting : cases) {
    SCOPED_TRACE(::testing::Message() << preexisting.size() << " known failures");
    exp::ScenarioConfig cfg = golden;
    cfg.new_faults.clear();
    cfg.preexisting = preexisting;
    exp::Scenario scenario{cfg};

    fp::FastForwardModel::Config ffc;
    ffc.mtu_payload = cfg.transport.mtu_payload;
    ffc.header_bytes = net::kHeaderBytes;
    ffc.noise_rel = 0.0;
    fp::FastForwardModel ff{cfg.fabric.shape, ffc};
    ff.rebaseline(scenario.demand(), scenario.fabric().routing());

    const fp::PortLoadMap* prediction = scenario.prediction();
    ASSERT_NE(prediction, nullptr);
    for (const net::LeafId l : core::ids<net::LeafId>(cfg.fabric.shape.leaves)) {
      const IterationRecord rec =
          ff.synthesize(l, net::IterIndex{0}, sim::Time::zero(), sim::Time::microseconds(50));
      for (const net::UplinkIndex u :
           core::ids<net::UplinkIndex>(cfg.fabric.shape.uplinks_per_leaf())) {
        EXPECT_EQ(ff.baseline().at(l, u).total, prediction->at(l, u).total);
        EXPECT_EQ(ff.baseline().at(l, u).by_src_leaf, prediction->at(l, u).by_src_leaf);
        EXPECT_NEAR(rec.bytes[u.v()], prediction->at(l, u).total,
                    1e-6 * (prediction->at(l, u).total + 1.0));
      }
    }
  }
}

TEST(FastForwardModel, NoiseIsDeterministicAndBounded) {
  fp::FastForwardModel::Config ffc;
  ffc.noise_rel = 0.002;
  ffc.seed = 99;
  net::TopologyInfo shape;
  shape.leaves = 4;
  shape.spines = 2;
  net::RoutingState routing{4, 2};
  collective::DemandMatrix demand{4};
  for (std::uint32_t i = 0; i < 4; ++i) {
    demand.add(net::HostId{i}, net::HostId{(i + 1) % 4}, core::Bytes{1u << 20});
  }
  fp::FastForwardModel ff{shape, ffc};
  ff.rebaseline(demand, routing);
  const IterationRecord a =
      ff.synthesize(net::LeafId{1}, net::IterIndex{3}, sim::Time::zero(), sim::Time::max());
  const IterationRecord b =
      ff.synthesize(net::LeafId{1}, net::IterIndex{3}, sim::Time::zero(), sim::Time::max());
  const IterationRecord c =
      ff.synthesize(net::LeafId{1}, net::IterIndex{4}, sim::Time::zero(), sim::Time::max());
  ASSERT_EQ(a.bytes.size(), b.bytes.size());
  double max_rel = 0.0;
  bool differs = false;
  for (std::size_t u = 0; u < a.bytes.size(); ++u) {
    EXPECT_DOUBLE_EQ(a.bytes[u], b.bytes[u]);  // same (leaf, iter) → same draw
    if (a.bytes[u] != c.bytes[u]) differs = true;
    if (a.bytes[u] > 0.0) {
      max_rel = std::max(max_rel, fp::relative_deviation(c.bytes[u], a.bytes[u]));
    }
  }
  EXPECT_TRUE(differs) << "noise must vary across iterations";
  EXPECT_LT(max_rel, 0.02) << "noise must stay well under the detection threshold";
}

// ---------------------------------------------------------------------------
// Hybrid ≡ packet verdict equivalence
// ---------------------------------------------------------------------------

struct Verdict {
  std::int64_t first_faulty_iteration = -1;
  net::LeafId quarantine_leaf{};
  net::UplinkIndex quarantine_uplink{};
  bool quarantined = false;
  ctrl::MitigationEvent::Kind final_kind = ctrl::MitigationEvent::Kind::kQuarantine;
  bool any_event = false;
  std::uint64_t events = 0;
};

Verdict run_verdict(exp::ScenarioConfig cfg, fp::FidelityMode mode) {
  cfg.fidelity.mode = mode;
  exp::Scenario scenario{cfg};
  const exp::ScenarioResult r = scenario.run();
  Verdict v;
  v.events = r.events;
  for (const fp::DetectionResult& d : r.detections) {
    if (d.faulty() && (v.first_faulty_iteration < 0 ||
                       d.iteration.v() < static_cast<std::uint32_t>(v.first_faulty_iteration))) {
      v.first_faulty_iteration = d.iteration.v();
    }
  }
  for (const ctrl::MitigationEvent& e : r.mitigation_events) {
    if (!v.quarantined && e.kind == ctrl::MitigationEvent::Kind::kQuarantine) {
      v.quarantine_leaf = e.leaf;
      v.quarantine_uplink = e.uplink;
      v.quarantined = true;
    }
    v.final_kind = e.kind;
    v.any_event = true;
  }
  return v;
}

void expect_equivalent(const Verdict& packet, const Verdict& hybrid, const char* what) {
  ASSERT_GE(packet.first_faulty_iteration, 0) << what;
  ASSERT_GE(hybrid.first_faulty_iteration, 0) << what;
  EXPECT_LE(std::llabs(packet.first_faulty_iteration - hybrid.first_faulty_iteration), 1)
      << what << ": flagged iterations diverge";
  ASSERT_EQ(packet.quarantined, hybrid.quarantined) << what;
  if (packet.quarantined) {
    EXPECT_EQ(packet.quarantine_leaf, hybrid.quarantine_leaf) << what;
    EXPECT_EQ(packet.quarantine_uplink, hybrid.quarantine_uplink) << what;
  }
  ASSERT_EQ(packet.any_event, hybrid.any_event) << what;
  if (packet.any_event) {
    EXPECT_EQ(static_cast<int>(packet.final_kind), static_cast<int>(hybrid.final_kind))
        << what << ": final mitigation action diverges";
  }
}

TEST(HybridEquivalence, GoldenScenario) {
  const exp::ScenarioConfig cfg = testing::golden_scenario_config();
  expect_equivalent(run_verdict(cfg, fp::FidelityMode::kPacket),
                    run_verdict(cfg, fp::FidelityMode::kHybrid), "golden");
}

TEST(HybridEquivalence, GoldenParallelScenario) {
  const exp::ScenarioConfig cfg = testing::golden_parallel_scenario_config();
  expect_equivalent(run_verdict(cfg, fp::FidelityMode::kPacket),
                    run_verdict(cfg, fp::FidelityMode::kHybrid), "golden-parallel");
}

// ≥20-seed sweep: varying fault link, mid-run onset, hybrid must reproduce
// the packet-mode verdict on every seed.
TEST(HybridEquivalence, SeededFaultSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    exp::ScenarioConfig cfg;
    cfg.fabric.shape.leaves = 8;
    cfg.fabric.shape.spines = 4;
    cfg.fabric.shape.hosts_per_leaf = 1;
    cfg.collective_bytes = core::Bytes{512u << 10};
    cfg.iterations = 10;
    cfg.seed = seed;
    cfg.mitigation.enabled = true;
    exp::NewFault fault;
    fault.leaf = net::LeafId{static_cast<std::uint32_t>(seed % 8)};
    fault.uplink = net::UplinkIndex{static_cast<std::uint32_t>((seed / 8 + seed) % 4)};
    fault.where = exp::NewFault::Where::kDownlink;
    // Onset after a few healthy iterations, so hybrid promotes to flow
    // first and must demote back around the onset.
    fault.spec = net::FaultSpec::random_drop(0.25, sim::Time::microseconds(100));
    cfg.new_faults.push_back(fault);
    const Verdict packet = run_verdict(cfg, fp::FidelityMode::kPacket);
    const Verdict hybrid = run_verdict(cfg, fp::FidelityMode::kHybrid);
    expect_equivalent(packet, hybrid, ("seed " + std::to_string(seed)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Fidelity accounting + speed
// ---------------------------------------------------------------------------

TEST(HybridFidelity, HealthyRunFastForwardsAndSaves10xEvents) {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape.leaves = 8;
  cfg.fabric.shape.spines = 4;
  cfg.collective_bytes = core::Bytes{1u << 20};
  cfg.iterations = 24;
  cfg.seed = 5;

  exp::ScenarioConfig hybrid_cfg = cfg;
  hybrid_cfg.fidelity.mode = fp::FidelityMode::kHybrid;
  exp::Scenario packet{cfg};
  exp::Scenario hybrid{hybrid_cfg};
  const exp::ScenarioResult pr = packet.run();
  const exp::ScenarioResult hr = hybrid.run();

  EXPECT_EQ(pr.iterations_completed, cfg.iterations);
  EXPECT_EQ(hr.iterations_completed, cfg.iterations);
  EXPECT_FALSE(pr.fidelity.enabled);
  ASSERT_TRUE(hr.fidelity.enabled);
  EXPECT_EQ(hr.fidelity.mode, fp::FidelityMode::kHybrid);
  // Healthy run: exactly the warmup iteration at packet fidelity.
  EXPECT_EQ(hr.fidelity.packet_iterations, 1u);
  EXPECT_EQ(hr.fidelity.flow_iterations, cfg.iterations - 1);
  EXPECT_EQ(hr.fidelity.iteration_mode.size(), cfg.iterations);
  // No alerts in either mode, and the event count collapses.
  EXPECT_TRUE(hr.detections.end() ==
              std::find_if(hr.detections.begin(), hr.detections.end(),
                           [](const fp::DetectionResult& d) { return d.faulty(); }));
  EXPECT_LT(hr.events * 10, pr.events) << "fast-forward saved fewer than 10x events";
}

TEST(HybridFidelity, DemotesAroundFaultOnsetAndRepromotes) {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape.leaves = 8;
  cfg.fabric.shape.spines = 4;
  cfg.collective_bytes = core::Bytes{1u << 20};
  cfg.iterations = 20;
  cfg.seed = 7;
  cfg.mitigation.enabled = true;
  exp::NewFault fault;
  fault.leaf = net::LeafId{3};
  fault.uplink = net::UplinkIndex{2};
  fault.where = exp::NewFault::Where::kDownlink;
  fault.spec = net::FaultSpec::random_drop(0.3, sim::Time::microseconds(150));
  cfg.new_faults.push_back(fault);
  cfg.fidelity.mode = fp::FidelityMode::kHybrid;

  exp::Scenario scenario{cfg};
  const exp::ScenarioResult r = scenario.run();
  ASSERT_TRUE(r.fidelity.enabled);
  EXPECT_GE(r.fidelity.demotions, 1u) << "fault onset must demote to packets";
  EXPECT_GE(r.fidelity.promotions, 1u) << "healthy prefix must promote to flow";
  EXPECT_GT(r.fidelity.flow_iterations, 0u);
  EXPECT_GT(r.fidelity.packet_iterations, 0u);
  // The loop still caught and mitigated the fault.
  bool quarantined = false;
  for (const ctrl::MitigationEvent& e : r.mitigation_events) {
    quarantined |= e.kind == ctrl::MitigationEvent::Kind::kQuarantine &&
                   e.leaf == net::LeafId{3} && e.uplink == net::UplinkIndex{2};
  }
  EXPECT_TRUE(quarantined);
}

TEST(FlowFidelity, ClosedLoopDetectsAndMitigatesAnalytically) {
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.fidelity.mode = fp::FidelityMode::kFlow;
  const Verdict packet = run_verdict(cfg, fp::FidelityMode::kPacket);
  const Verdict flow = run_verdict(cfg, fp::FidelityMode::kFlow);
  // Flow mode must find and quarantine the same link, entirely without
  // packets; timing may differ by the debounce alignment.
  ASSERT_TRUE(flow.quarantined);
  EXPECT_EQ(flow.quarantine_leaf, packet.quarantine_leaf);
  EXPECT_EQ(flow.quarantine_uplink, packet.quarantine_uplink);
  EXPECT_LT(flow.events * 10, packet.events);

  exp::Scenario scenario{cfg};
  const exp::ScenarioResult r = scenario.run();
  ASSERT_TRUE(r.fidelity.enabled);
  EXPECT_EQ(r.fidelity.mode, fp::FidelityMode::kFlow);
  EXPECT_EQ(r.fidelity.packet_iterations, 0u);
  EXPECT_EQ(r.fidelity.flow_iterations, cfg.iterations);
}

TEST(HybridFidelity, ReportEmitsFidelitySectionOnlyWhenEnabled) {
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  exp::Scenario packet{cfg};
  exp::ScenarioResult pr = packet.run();
  EXPECT_EQ(exp::to_json(pr).find("\"fidelity\""), std::string::npos);

  cfg.fidelity.mode = fp::FidelityMode::kHybrid;
  exp::Scenario hybrid{cfg};
  exp::ScenarioResult hr = hybrid.run();
  const std::string json = exp::to_json(hr);
  EXPECT_NE(json.find("\"fidelity\":{\"mode\":\"hybrid\""), std::string::npos);
}

// Unsupported configurations must fall back to the untouched packet path.
TEST(HybridFidelity, FallsBackToPacketWhenUnsupported) {
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.fidelity.mode = fp::FidelityMode::kHybrid;
  cfg.background.bytes = core::Bytes{1u << 16};  // background job → no hybrid
  exp::Scenario scenario{cfg};
  const exp::ScenarioResult r = scenario.run();
  EXPECT_FALSE(r.fidelity.enabled);
  EXPECT_EQ(r.iterations_completed, cfg.iterations);
}

// The golden hashes are pinned on the packet path; a hybrid-capable build
// must not perturb them (asserted alongside the hash tests, but restated
// here as the hybrid engine's no-regression contract).
TEST(HybridFidelity, PacketModeGoldenHashUnchanged) {
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.fidelity.mode = fp::FidelityMode::kPacket;
  EXPECT_EQ(testing::report_hash(cfg), testing::golden_report_hash());
}

}  // namespace
}  // namespace flowpulse
