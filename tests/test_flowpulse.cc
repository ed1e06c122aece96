// FlowPulse core tests: analytical model math, the port monitor's
// iteration delimiting, threshold detection, localization, the culprit
// rule, and the learned model's re-baselining state machine.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "collective/demand_matrix.h"
#include "core/strong_id.h"
#include "core/units.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/detector.h"
#include "flowpulse/learned_model.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "flowpulse/system.h"
#include "net/routing.h"
#include "net/topology_info.h"

namespace flowpulse::fp {
namespace {

using collective::DemandMatrix;
using net::RoutingState;
using net::TopologyInfo;

// ---------------------------------------------------------------------------
// AnalyticalModel
// ---------------------------------------------------------------------------

class AnalyticalModelTest : public ::testing::Test {
 protected:
  TopologyInfo info{4, 4, 1, 1};  // 4 leaves × 4 spines, 1 host/leaf
  RoutingState routing{4, 4};
  AnalyticalModel model{info, 4096, core::Bytes{64}};
};

TEST_F(AnalyticalModelTest, WireBytesAccountsForSegmentation) {
  EXPECT_DOUBLE_EQ(model.wire_bytes(core::Bytes{0}), 0.0);
  EXPECT_DOUBLE_EQ(model.wire_bytes(core::Bytes{4096}), 4096 + 64);
  EXPECT_DOUBLE_EQ(model.wire_bytes(core::Bytes{4097}), 4097 + 2 * 64);
  EXPECT_DOUBLE_EQ(model.wire_bytes(core::Bytes{8192}), 8192 + 2 * 64);
}

TEST_F(AnalyticalModelTest, FaultFreeSplitsEvenlyAcrossSpines) {
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{1}, core::Bytes{4096 * 4});  // 4 segments
  const PortLoadMap map = model.predict(d, routing);
  const double wire = 4 * (4096 + 64);
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(4)) {
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, u).total, wire / 4);
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, u).by_src_leaf[0], wire / 4);
    // Nothing lands at other leaves.
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{2}, u).total, 0.0);
  }
}

TEST_F(AnalyticalModelTest, KnownFaultRedistributesOverRemaining) {
  // Paper §5.2: d bytes, f failed adjacent spines, s spines → each
  // surviving spine carries d/(s−f).
  routing.set_known_failed(net::LeafId{0}, net::UplinkIndex{2});  // source-side failure
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{1}, core::Bytes{4096 * 12});
  const PortLoadMap map = model.predict(d, routing);
  const double wire = 12 * (4096 + 64);
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(4)) {
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, u).total, u == net::UplinkIndex{2} ? 0.0 : wire / 3);
  }
}

TEST_F(AnalyticalModelTest, DestinationSideFaultAlsoCounts) {
  routing.set_known_failed(net::LeafId{1}, net::UplinkIndex{0});  // destination-side failure
  routing.set_known_failed(net::LeafId{0}, net::UplinkIndex{3});  // plus source-side → s − f = 2
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{1}, core::Bytes{4096 * 8});
  const PortLoadMap map = model.predict(d, routing);
  const double wire = 8 * (4096 + 64);
  EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, net::UplinkIndex{0}).total, 0.0);
  EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, net::UplinkIndex{1}).total, wire / 2);
  EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, net::UplinkIndex{2}).total, wire / 2);
  EXPECT_DOUBLE_EQ(map.at(net::LeafId{1}, net::UplinkIndex{3}).total, 0.0);
}

TEST_F(AnalyticalModelTest, IntraLeafTrafficNeverReachesSpines) {
  const TopologyInfo two_per{2, 4, 2, 1};
  AnalyticalModel m{two_per, 4096, core::Bytes{64}};
  RoutingState r{2, 4};
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{1}, core::Bytes{1 << 20});  // hosts 0,1 share leaf 0
  const PortLoadMap map = m.predict(d, r);
  EXPECT_DOUBLE_EQ(map.total(), 0.0);
}

TEST_F(AnalyticalModelTest, MultipleSendersAccumulatePerSender) {
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{3}, core::Bytes{4096 * 4});
  d.add(net::HostId{1}, net::HostId{3}, core::Bytes{4096 * 8});
  const PortLoadMap map = model.predict(d, routing);
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(4)) {
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{3}, u).by_src_leaf[0], 4 * (4096 + 64) / 4.0);
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{3}, u).by_src_leaf[1], 8 * (4096 + 64) / 4.0);
    EXPECT_DOUBLE_EQ(map.at(net::LeafId{3}, u).total,
                     map.at(net::LeafId{3}, u).by_src_leaf[0] + map.at(net::LeafId{3}, u).by_src_leaf[1]);
  }
}

TEST_F(AnalyticalModelTest, PartitionedPairContributesNothing) {
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(4)) {
    routing.set_known_failed(net::LeafId{1}, u);
  }
  DemandMatrix d{4};
  d.add(net::HostId{0}, net::HostId{1}, core::Bytes{1 << 20});
  const PortLoadMap map = model.predict(d, routing);
  EXPECT_DOUBLE_EQ(map.total(), 0.0);
}

// ---------------------------------------------------------------------------
// PortMonitor
// ---------------------------------------------------------------------------

net::Packet data_packet(std::uint32_t iter, std::uint32_t src, std::uint32_t size,
                        std::uint16_t job = 0) {
  net::Packet p;
  p.flow_id = net::flowid::make_collective(net::IterIndex{iter}, job);
  p.src = net::HostId{src};
  p.size_bytes = core::Bytes{size};
  p.kind = net::PacketKind::kData;
  return p;
}

class PortMonitorTest : public ::testing::Test {
 protected:
  TopologyInfo info{4, 2, 1, 1};
  PortMonitor mon{net::LeafId{1}, Tier::leaves_of(info)};
};

TEST_F(PortMonitorTest, CountsTaggedDataBytesPerPort) {
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 1000));
  mon.record(net::UplinkIndex{1}, data_packet(0, 2, 500));
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 200));
  mon.flush();
  ASSERT_EQ(mon.history().size(), 1u);
  const IterationRecord& r = mon.history()[0];
  EXPECT_EQ(r.iteration, net::IterIndex{0});
  EXPECT_DOUBLE_EQ(r.bytes[0], 1200.0);
  EXPECT_DOUBLE_EQ(r.bytes[1], 500.0);
  EXPECT_DOUBLE_EQ(r.by_src[0][0], 1200.0);
  EXPECT_DOUBLE_EQ(r.by_src[1][2], 500.0);
}

TEST_F(PortMonitorTest, IgnoresAcksProbesAndUntagged) {
  net::Packet ack = data_packet(0, 0, 64);
  ack.kind = net::PacketKind::kAck;
  mon.record(net::UplinkIndex{0}, ack);
  net::Packet probe = data_packet(0, 0, 64);
  probe.kind = net::PacketKind::kProbe;
  mon.record(net::UplinkIndex{0}, probe);
  net::Packet untagged = data_packet(0, 0, 999);
  untagged.flow_id = 0x1234;
  mon.record(net::UplinkIndex{0}, untagged);
  mon.flush();
  EXPECT_TRUE(mon.history().empty());  // nothing measurable ever arrived
}

TEST_F(PortMonitorTest, IgnoresOtherJobs) {
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 1000, /*job=*/3));
  mon.flush();
  EXPECT_TRUE(mon.history().empty());

  PortMonitor job3{net::LeafId{1}, Tier::leaves_of(info), 3};
  job3.record(net::UplinkIndex{0}, data_packet(0, 0, 1000, 3));
  job3.flush();
  ASSERT_EQ(job3.history().size(), 1u);
}

TEST_F(PortMonitorTest, NextIterationFinalizesPrevious) {
  int finalized = 0;
  mon.set_finalize_hook([&](const IterationRecord&) { ++finalized; });
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 100));
  EXPECT_EQ(finalized, 0);
  mon.record(net::UplinkIndex{0}, data_packet(1, 0, 100));  // first packet of iteration 1
  EXPECT_EQ(finalized, 1);
  mon.record(net::UplinkIndex{1}, data_packet(1, 0, 300));
  mon.flush();
  EXPECT_EQ(finalized, 2);
  ASSERT_EQ(mon.history().size(), 2u);
  EXPECT_DOUBLE_EQ(mon.history()[1].bytes[1], 300.0);
}

TEST_F(PortMonitorTest, LateStragglerPacketsFoldIntoCurrentWindow) {
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 100));
  mon.record(net::UplinkIndex{0}, data_packet(1, 0, 100));  // iteration 1 opens
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 50));   // late duplicate from iteration 0
  mon.flush();
  ASSERT_EQ(mon.history().size(), 2u);
  EXPECT_DOUBLE_EQ(mon.history()[0].bytes[0], 100.0);
  EXPECT_DOUBLE_EQ(mon.history()[1].bytes[0], 150.0);
}

TEST_F(PortMonitorTest, FlushIsIdempotent) {
  mon.record(net::UplinkIndex{0}, data_packet(0, 0, 100));
  mon.flush();
  mon.flush();
  EXPECT_EQ(mon.history().size(), 1u);
}

// ---------------------------------------------------------------------------
// Detector + localization
// ---------------------------------------------------------------------------

TEST(RelativeDeviation, Basics) {
  EXPECT_DOUBLE_EQ(relative_deviation(99.0, 100.0), 0.01);
  EXPECT_DOUBLE_EQ(relative_deviation(101.0, 100.0), 0.01);
  EXPECT_DOUBLE_EQ(relative_deviation(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_deviation(5.0, 0.0)));
}

IterationRecord record_with(std::uint32_t uplinks, std::uint32_t leaves,
                            const std::vector<double>& bytes) {
  IterationRecord r;
  r.leaf = net::LeafId{0};
  r.iteration = net::IterIndex{7};
  r.bytes = bytes;
  r.by_src.assign(uplinks, std::vector<double>(leaves, 0.0));
  return r;
}

TEST(Detector, NoAlertWithinThreshold) {
  PortLoadMap pred{2, 2};
  pred.add(net::LeafId{0}, net::UplinkIndex{0}, net::LeafId{1}, 1000.0);
  pred.add(net::LeafId{0}, net::UplinkIndex{1}, net::LeafId{1}, 1000.0);
  const DetectionResult res = evaluate_record(pred, 0.01, record_with(2, 2, {995.0, 1005.0}));
  EXPECT_FALSE(res.faulty());
  EXPECT_NEAR(res.max_rel_dev, 0.005, 1e-12);
}

TEST(Detector, AlertBeyondThreshold) {
  PortLoadMap pred{2, 2};
  pred.add(net::LeafId{0}, net::UplinkIndex{0}, net::LeafId{1}, 1000.0);
  pred.add(net::LeafId{0}, net::UplinkIndex{1}, net::LeafId{1}, 1000.0);
  const DetectionResult res = evaluate_record(pred, 0.01, record_with(2, 2, {960.0, 1000.0}));
  ASSERT_EQ(res.alerts.size(), 1u);
  EXPECT_EQ(res.alerts[0].uplink, net::UplinkIndex{0});
  EXPECT_NEAR(res.alerts[0].rel_dev, 0.04, 1e-12);
  EXPECT_EQ(res.iteration, net::IterIndex{7});
}

TEST(Detector, SurplusTrafficAlsoAlerts) {
  PortLoadMap pred{1, 1};
  pred.add(net::LeafId{0}, net::UplinkIndex{0}, net::LeafId{0}, 1000.0);
  EXPECT_TRUE(evaluate_record(pred, 0.01, record_with(1, 1, {1100.0})).faulty());
}

TEST(Detector, TrafficOnSilentPortIsInfinitelyDeviant) {
  PortLoadMap pred{2, 2};
  pred.add(net::LeafId{0}, net::UplinkIndex{1}, net::LeafId{1}, 1000.0);  // port 0 predicted silent
  const DetectionResult res = evaluate_record(pred, 0.01, record_with(2, 2, {50.0, 1000.0}));
  ASSERT_EQ(res.alerts.size(), 1u);
  EXPECT_TRUE(std::isinf(res.alerts[0].rel_dev));
}

TEST(Localize, AllSendersShortMeansLocalLink) {
  PortLoad pred{4};
  pred.by_src_leaf = {0.0, 500.0, 500.0, 0.0};
  pred.total = 1000.0;
  IterationRecord rec = record_with(1, 4, {900.0});
  rec.by_src[0] = {0.0, 450.0, 450.0, 0.0};  // both senders −10%
  const Localization loc = localize(rec, pred, net::UplinkIndex{0}, 0.01);
  EXPECT_EQ(loc.verdict, Localization::Verdict::kLocalLink);
  EXPECT_TRUE(loc.suspect_senders.empty());
}

TEST(Localize, SingleSenderShortMeansRemoteLink) {
  // Fig. 4: L2's port from S1 misses only L1's traffic → remote L1–S1 link.
  PortLoad pred{4};
  pred.by_src_leaf = {0.0, 500.0, 500.0, 0.0};
  pred.total = 1000.0;
  IterationRecord rec = record_with(1, 4, {950.0});
  rec.by_src[0] = {0.0, 450.0, 500.0, 0.0};  // only leaf 1 short
  const Localization loc = localize(rec, pred, net::UplinkIndex{0}, 0.01);
  EXPECT_EQ(loc.verdict, Localization::Verdict::kRemoteLinks);
  ASSERT_EQ(loc.suspect_senders.size(), 1u);
  EXPECT_EQ(loc.suspect_senders[0], net::LeafId{1});
}

TEST(Localize, SurplusOnlyIsUnknown) {
  PortLoad pred{2};
  pred.by_src_leaf = {0.0, 500.0};
  pred.total = 500.0;
  IterationRecord rec = record_with(1, 2, {600.0});
  rec.by_src[0] = {0.0, 600.0};
  EXPECT_EQ(localize(rec, pred, net::UplinkIndex{0}, 0.01).verdict, Localization::Verdict::kUnknown);
}

// ---------------------------------------------------------------------------
// Culprit rule: localization → suspect links
// ---------------------------------------------------------------------------

PortAlert shortfall_alert(Localization::Verdict verdict, std::vector<net::LeafId> senders = {}) {
  PortAlert a;
  a.uplink = net::UplinkIndex{3};
  a.observed = 900.0;
  a.predicted = 1000.0;
  a.rel_dev = 0.1;
  a.localization.verdict = verdict;
  a.localization.suspect_senders = std::move(senders);
  return a;
}

std::vector<net::LinkId> suspects_of(net::LeafId leaf, const PortAlert& alert) {
  std::vector<net::LinkId> links;
  for_each_suspect_link(leaf, alert, [&links](net::LinkId link) { links.push_back(link); });
  return links;
}

TEST(SuspectLinks, LocalOrUnknownShortfallBlamesItsOwnLink) {
  const net::LeafId leaf{5};
  const std::vector<net::LinkId> own{net::LinkId::of(leaf, net::UplinkIndex{3})};
  EXPECT_EQ(suspects_of(leaf, shortfall_alert(Localization::Verdict::kLocalLink)), own);
  EXPECT_EQ(suspects_of(leaf, shortfall_alert(Localization::Verdict::kUnknown)), own);
}

TEST(SuspectLinks, RemoteShortfallBlamesEachSendersLinkOnThatUplink) {
  const PortAlert alert =
      shortfall_alert(Localization::Verdict::kRemoteLinks, {net::LeafId{1}, net::LeafId{7}});
  const std::vector<net::LinkId> senders{net::LinkId::of(net::LeafId{1}, net::UplinkIndex{3}),
                                         net::LinkId::of(net::LeafId{7}, net::UplinkIndex{3})};
  EXPECT_EQ(suspects_of(net::LeafId{5}, alert), senders);
}

TEST(SuspectLinks, SurplusBlamesNothing) {
  for (const Localization::Verdict v :
       {Localization::Verdict::kLocalLink, Localization::Verdict::kRemoteLinks,
        Localization::Verdict::kUnknown}) {
    PortAlert alert = shortfall_alert(v, {net::LeafId{1}});
    alert.observed = 1100.0;
    EXPECT_TRUE(suspects_of(net::LeafId{5}, alert).empty());
    alert.observed = alert.predicted;  // no shortfall either
    EXPECT_TRUE(suspects_of(net::LeafId{5}, alert).empty());
  }
}

// ---------------------------------------------------------------------------
// LearnedModel
// ---------------------------------------------------------------------------

IterationRecord uniform_record(std::uint32_t uplinks, double bytes, std::uint32_t iter = 0) {
  IterationRecord r;
  r.iteration = net::IterIndex{iter};
  r.bytes.assign(uplinks, bytes);
  r.by_src.assign(uplinks, std::vector<double>(1, bytes));
  return r;
}

/// What the learned model made of one record: "learning" or "re-learning"
/// when it was not judged, else "alert" or "ok".
std::string kind(const DetectionResult& r) {
  if (r.unjudged != nullptr) return r.unjudged;
  return r.faulty() ? "alert" : "ok";
}

TEST(LearnedModel, LearnsBaselineThenAccepts) {
  LearnedModel m{4, {.learn_iterations = 3}, 0.01};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(kind(m.observe(uniform_record(4, 1000.0))), "learning");
  }
  EXPECT_EQ(m.phase(), LearnedModel::Phase::kMonitoring);
  EXPECT_EQ(kind(m.observe(uniform_record(4, 1004.0))), "ok");
  EXPECT_DOUBLE_EQ(m.baseline()[0].total, 1000.0);
}

TEST(LearnedModel, AlertsOnNewFaultSignature) {
  LearnedModel m{4, {.learn_iterations = 2}, 0.01};
  (void)m.observe(uniform_record(4, 1000.0));
  (void)m.observe(uniform_record(4, 1000.0));
  IterationRecord faulty = uniform_record(4, 1010.0);  // others pick up retx
  faulty.bytes[2] = 940.0;                             // port 2 drops 6%
  const DetectionResult out = m.observe(faulty);
  EXPECT_EQ(kind(out), "alert");
  ASSERT_FALSE(out.alerts.empty());
}

TEST(LearnedModel, RebaselinesWhenTransientFaultHeals) {
  // Fig. 3: learn under a fault (port 1 suppressed), then the fault heals:
  // port 1 rises and dispersion shrinks → re-baseline, not alert.
  LearnedModel m{4, {.learn_iterations = 2}, 0.01};
  IterationRecord poisoned = uniform_record(4, 1020.0);
  poisoned.bytes[1] = 900.0;
  (void)m.observe(poisoned);
  (void)m.observe(poisoned);
  EXPECT_EQ(m.phase(), LearnedModel::Phase::kMonitoring);

  const IterationRecord healed = uniform_record(4, 1000.0);
  EXPECT_EQ(kind(m.observe(healed)), "re-learning");
  EXPECT_EQ(m.rebaseline_count(), 1u);

  // After the re-learning window, the healthy load is the new baseline.
  (void)m.observe(healed);
  EXPECT_EQ(m.phase(), LearnedModel::Phase::kMonitoring);
  EXPECT_DOUBLE_EQ(m.baseline()[1].total, 1000.0);
  EXPECT_EQ(kind(m.observe(uniform_record(4, 1000.0))), "ok");
}

TEST(LearnedModel, DispersionIgnoresDeadPorts) {
  EXPECT_DOUBLE_EQ(LearnedModel::dispersion({0.0, 100.0, 100.0}), 0.0);
  EXPECT_GT(LearnedModel::dispersion({0.0, 100.0, 200.0}), 0.0);
  EXPECT_DOUBLE_EQ(LearnedModel::dispersion({}), 0.0);
  EXPECT_DOUBLE_EQ(LearnedModel::dispersion({50.0}), 0.0);
}

TEST(LearnedModel, AlertsCarryLocalizationFromLearnedPerSenderBaseline) {
  LearnedModel m{2, {.learn_iterations = 2}, 0.01};
  // Two senders (leaves 0 and 1) contribute 600/400 to each port.
  IterationRecord base;
  base.bytes = {1000.0, 1000.0};
  base.by_src = {{600.0, 400.0}, {600.0, 400.0}};
  (void)m.observe(base);
  (void)m.observe(base);
  ASSERT_EQ(m.phase(), LearnedModel::Phase::kMonitoring);
  EXPECT_DOUBLE_EQ(m.baseline()[0].by_src_leaf[0], 600.0);
  EXPECT_DOUBLE_EQ(m.baseline()[1].by_src_leaf[1], 400.0);

  // Port 0 loses ONLY sender 1's traffic → remote verdict naming leaf 1.
  IterationRecord faulty = base;
  faulty.bytes[0] = 920.0;
  faulty.by_src[0] = {600.0, 320.0};
  const DetectionResult out = m.observe(faulty);
  ASSERT_EQ(kind(out), "alert");
  ASSERT_EQ(out.alerts.size(), 1u);
  EXPECT_EQ(out.alerts[0].uplink, net::UplinkIndex{0});
  EXPECT_EQ(out.alerts[0].localization.verdict, Localization::Verdict::kRemoteLinks);
  EXPECT_EQ(out.alerts[0].localization.suspect_senders,
            std::vector<net::LeafId>{net::LeafId{1}});

  // Both senders short → local link verdict.
  IterationRecord local = base;
  local.bytes[1] = 900.0;
  local.by_src[1] = {540.0, 360.0};
  const DetectionResult out2 = m.observe(local);
  ASSERT_EQ(kind(out2), "alert");
  ASSERT_EQ(out2.alerts.size(), 1u);
  EXPECT_EQ(out2.alerts[0].localization.verdict, Localization::Verdict::kLocalLink);
}

TEST(FlowPulseSystem, LearnedModelJudgesAtTheSystemThreshold) {
  SystemConfig cfg;
  cfg.model = ModelKind::kLearned;
  cfg.threshold = 0.05;
  cfg.learned.learn_iterations = 2;
  FlowPulseSystem system{Tier{1, 4, 1, 1}, cfg};
  system.ingest(uniform_record(4, 1000.0, 0));
  system.ingest(uniform_record(4, 1000.0, 1));
  // A 2% shortfall on one port is inside the 5% threshold...
  IterationRecord shortfall = uniform_record(4, 1000.0, 2);
  shortfall.bytes[2] = shortfall.by_src[2][0] = 980.0;
  system.ingest(shortfall);
  // ...and a 6% one is beyond it.
  shortfall.iteration = net::IterIndex{3};
  shortfall.bytes[2] = shortfall.by_src[2][0] = 940.0;
  system.ingest(shortfall);
  const std::vector<DetectionResult>& results = system.results();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(kind(results[2]), "ok");
  EXPECT_NEAR(results[2].max_rel_dev, 0.02, 1e-12);
  EXPECT_EQ(kind(results[3]), "alert");
}

TEST(FlowPulseSystem, LearnedModelPublishesOneResultPerRecord) {
  // Every ingested record leaves through the one tail (results and alert
  // hook): learning and healed iterations unjudged, the rest judged.
  SystemConfig cfg;
  cfg.model = ModelKind::kLearned;
  cfg.learned.learn_iterations = 2;
  FlowPulseSystem system{Tier{1, 4, 1, 1}, cfg};
  std::vector<std::string> hooked;
  system.set_alert_hook([&hooked](const DetectionResult& r) { hooked.push_back(kind(r)); });
  // Learned under a fault that suppresses port 1...
  IterationRecord poisoned = uniform_record(4, 1020.0, 0);
  poisoned.bytes[1] = poisoned.by_src[1][0] = 900.0;
  system.ingest(poisoned);
  poisoned.iteration = net::IterIndex{1};
  system.ingest(poisoned);
  // ...which then heals: re-learning from this record on.
  for (std::uint32_t i = 2; i < 5; ++i) system.ingest(uniform_record(4, 1000.0, i));

  const std::vector<DetectionResult>& results = system.results();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(hooked, (std::vector<std::string>{"learning", "learning", "re-learning",
                                               "learning", "ok"}));
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[i].iteration, net::IterIndex{i});
    EXPECT_EQ(kind(results[i]), hooked[i]);
  }
  EXPECT_EQ(results[0].max_rel_dev, 0.0);
  EXPECT_EQ(results[1].max_rel_dev, 0.0);
  // The healed iteration raised no alert but keeps its deviation: port 1
  // carried 1000 B against a learned 900 B.
  EXPECT_FALSE(results[2].faulty());
  EXPECT_NEAR(results[2].max_rel_dev, 100.0 / 900.0, 1e-12);
  EXPECT_TRUE(system.faulty_results().empty());
  EXPECT_EQ(system.per_iteration_max_dev(),
            (std::vector<double>{0.0, 0.0, results[2].max_rel_dev, 0.0, 0.0}));
}

TEST(LearnedModel, NewFaultAfterRebaselineStillAlerts) {
  LearnedModel m{2, {.learn_iterations = 1}, 0.01};
  IterationRecord poisoned = uniform_record(2, 1000.0);
  poisoned.bytes[0] = 800.0;
  (void)m.observe(poisoned);                   // baseline (fault present)
  (void)m.observe(uniform_record(2, 1000.0));  // heals → rebaseline sample
  EXPECT_EQ(m.phase(), LearnedModel::Phase::kMonitoring);
  IterationRecord faulty = uniform_record(2, 1000.0);
  faulty.bytes[1] = 900.0;
  EXPECT_EQ(kind(m.observe(faulty)), "alert");
}

}  // namespace
}  // namespace flowpulse::fp
