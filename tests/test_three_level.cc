// Three-level Clos extension (paper §7): topology wiring, path locality,
// the two-tier analytical model, and FlowPulse monitors at both the leaf
// and pod-spine levels.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "collective/runner.h"
#include "core/strong_id.h"
#include "exp/clos_scenario.h"
#include "exp/scenario.h"
#include "flowpulse/three_level_system.h"
#include "net/three_level.h"
#include "sim/simulator.h"
#include "transport/transport_layer.h"

namespace flowpulse::net {
namespace {

using sim::Simulator;
using sim::Time;

TEST(ThreeLevelInfo, Shape) {
  const ThreeLevelInfo info{4, 4, 2, 1};  // 4 pods × (4 leaves + 2 spines)
  EXPECT_EQ(info.num_leaves(), 16u);
  EXPECT_EQ(info.num_pod_spines(), 8u);
  EXPECT_EQ(info.cores_per_group(), 4u);
  EXPECT_EQ(info.num_cores(), 8u);
  EXPECT_EQ(info.num_hosts(), 16u);
  EXPECT_EQ(info.pod_of_leaf(LeafId{5}), 1u);
  EXPECT_EQ(info.local_leaf(LeafId{5}), 1u);
  EXPECT_EQ(info.pod_spine_id(2, 1), 5u);
  EXPECT_EQ(info.core_id(1, 3), 7u);
}

struct Rig3 {
  explicit Rig3(ThreeLevelInfo shape = {2, 2, 2, 1}, std::uint64_t seed = 1)
      : sim{seed}, net{sim, make_config(shape, seed)} {}
  static ThreeLevelConfig make_config(ThreeLevelInfo shape, std::uint64_t seed) {
    ThreeLevelConfig cfg;
    cfg.shape = shape;
    cfg.seed = seed;
    return cfg;
  }
  Simulator sim;
  ThreeLevelFatTree net;
};

Packet packet_to(HostId src, HostId dst, std::uint32_t size = 1000) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size_bytes = core::Bytes{size};
  return p;
}

TEST(ThreeLevel, AllPairsReachable) {
  Rig3 rig{{2, 2, 2, 2}};  // 8 hosts
  int got = 0;
  for (const HostId h : core::ids<HostId>(rig.net.num_hosts())) {
    rig.net.host(h).set_rx_handler([&](const Packet&) { ++got; });
  }
  int sent = 0;
  for (const HostId s : core::ids<HostId>(rig.net.num_hosts())) {
    for (const HostId d : core::ids<HostId>(rig.net.num_hosts())) {
      if (s == d) continue;
      rig.net.host(s).nic().enqueue(packet_to(s, d));
      ++sent;
    }
  }
  rig.sim.run();
  EXPECT_EQ(got, sent);
}

TEST(ThreeLevel, SamePodTrafficNeverTouchesCores) {
  Rig3 rig{{2, 2, 2, 1}};
  rig.net.host(HostId{1}).set_rx_handler([](const Packet&) {});
  for (int i = 0; i < 100; ++i) {
    rig.net.host(HostId{0}).nic().enqueue(packet_to(HostId{0}, HostId{1}));  // leaves 0→1, both pod 0
  }
  rig.sim.run();
  for (std::uint32_t g = 0; g < 2; ++g) {
    for (std::uint32_t k = 0; k < 2; ++k) {
      for (std::uint32_t pod = 0; pod < 2; ++pod) {
        EXPECT_EQ(rig.net.core(g, k).down_port(PortIndex{pod}).counters().tx_packets,
                  core::Packets{0});
      }
    }
  }
}

TEST(ThreeLevel, CrossPodTrafficSpreadsOverSpinesAndCores) {
  Rig3 rig{{2, 2, 2, 1}};
  rig.net.host(HostId{2}).set_rx_handler([](const Packet&) {});
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    rig.net.host(HostId{0}).nic().enqueue(packet_to(HostId{0}, HostId{2}));  // pod 0 → pod 1
  }
  rig.sim.run();
  // 2 spines × 2 cores = 4 paths; byte-deficit spraying balances them.
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t k = 0; k < 2; ++k) {
      const auto& up = rig.net.pod_spine(0, s).core_uplink(k).counters();
      EXPECT_NEAR(up.tx_packets.dbl(), n / 4.0, n / 16.0);
    }
  }
}

TEST(ThreeLevel, ByteConservation) {
  Rig3 rig{{2, 2, 2, 2}, 5};
  rig.net.set_core_link_fault(0, 1, 0, FaultSpec::random_drop(0.2));
  // A dead (not routed-around) uplink: its drops are the only ones the
  // switch counters can see.
  rig.net.set_leaf_link_fault(LeafId{1}, 0, FaultSpec::disconnect());
  int got = 0;
  for (const HostId h : core::ids<HostId>(8)) {
    rig.net.host(h).set_rx_handler([&](const Packet&) { ++got; });
  }
  for (int i = 0; i < 200; ++i) {
    rig.net.host(HostId{0}).nic().enqueue(packet_to(HostId{0}, HostId{5}, 900));
    rig.net.host(HostId{3}).nic().enqueue(packet_to(HostId{3}, HostId{6}, 900));
  }
  rig.sim.run();
  const LinkCounters total = rig.net.total_fabric_counters();
  EXPECT_EQ(total.tx_packets, total.dropped_packets + total.delivered_packets());
  EXPECT_GT(total.dropped_packets, core::Packets{0});
  const core::Packets dead =
      rig.net.leaf(LeafId{1}).uplink(UplinkIndex{0}).counters().dropped_packets;
  EXPECT_GT(dead, core::Packets{0});
  EXPECT_EQ(total.telemetry_dropped_packets, dead);
}

TEST(ThreeLevel, KnownDisconnectAvoidedEndToEnd) {
  Rig3 rig{{2, 2, 2, 1}};
  // Leaf 2 (pod 1) loses its link to pod-spine index 0: cross-pod traffic
  // to leaf 2 must use spine index 1 (and its core group) exclusively.
  rig.net.disconnect_known(LeafId{2}, 0);
  int got = 0;
  rig.net.host(HostId{2}).set_rx_handler([&](const Packet&) { ++got; });
  for (int i = 0; i < 100; ++i) {
    rig.net.host(HostId{0}).nic().enqueue(packet_to(HostId{0}, HostId{2}));
  }
  rig.sim.run();
  EXPECT_EQ(got, 100);
  EXPECT_EQ(rig.net.leaf(LeafId{0}).uplink(UplinkIndex{0}).counters().tx_packets,
            core::Packets{0});
  for (std::uint32_t k = 0; k < 2; ++k) {
    EXPECT_EQ(rig.net.core(0, k).down_port(PortIndex{1}).counters().tx_packets,
              core::Packets{0});
  }
}

// ---------------------------------------------------------------------------
// Two-tier analytical model
// ---------------------------------------------------------------------------

// {2 pods, 2 leaves per pod, 2 spines per pod, 2 hosts per leaf}: leaf l
// holds hosts 2l and 2l+1, pod 0 is leaves 0-1, and each pod-spine index
// leads to a group of 2 cores. Every pair sends 4 full 4096 B segments, so
// 4 × (4096 + 64) = 16640 wire bytes. The known failure cuts leaf 0 from
// its pod's spine 0, which leaves pairs from leaf 0 one valid spine index.
TEST(ThreeLevelAnalyticalModel, HandComputedTiersPerPair) {
  const ThreeLevelInfo info{2, 2, 2, 2};
  const fp::ThreeLevelAnalyticalModel model{info, 4096, core::Bytes{64}};
  auto predict = [&](HostId src, HostId dst, bool failed) {
    RoutingState routing{info.num_leaves(), info.spines_per_pod};
    if (failed) routing.set_known_failed(LeafId{0}, UplinkIndex{0});
    collective::DemandMatrix demand{info.num_hosts()};
    demand.add(src, dst, core::Bytes{4 * 4096});
    return model.predict(demand, routing);
  };
  for (const bool failed : {false, true}) {
    SCOPED_TRACE(failed ? "leaf 0 - spine 0 known failed" : "fault-free");
    // Fault-free: 16640 / 2 spines = 8320 per spine, / 2 cores = 4160.
    // Failed: all 16640 on spine 1, 8320 per core.
    const double spine0 = failed ? 0.0 : 8320.0;
    const double spine1 = failed ? 16640.0 : 8320.0;

    // Cross-pod, host 0 (leaf 0, pod 0) → host 4 (leaf 2, pod 1): both
    // tiers of pod 1 carry the whole pair.
    const fp::ThreeLevelPrediction cross = predict(HostId{0}, HostId{4}, failed);
    EXPECT_DOUBLE_EQ(cross.leaf_level.total(), 16640.0);
    EXPECT_DOUBLE_EQ(cross.spine_level.total(), 16640.0);
    EXPECT_DOUBLE_EQ(cross.leaf_level.at(LeafId{2}, UplinkIndex{0}).by_src_leaf[0], spine0);
    EXPECT_DOUBLE_EQ(cross.leaf_level.at(LeafId{2}, UplinkIndex{1}).by_src_leaf[0], spine1);
    for (const UplinkIndex k : core::ids<UplinkIndex>(2)) {
      // Pod 1's pod-spines are rows 2 (index 0) and 3 (index 1).
      EXPECT_DOUBLE_EQ(cross.spine_level.at(LeafId{2}, k).by_src_leaf[0], spine0 / 2);
      EXPECT_DOUBLE_EQ(cross.spine_level.at(LeafId{3}, k).by_src_leaf[0], spine1 / 2);
      EXPECT_DOUBLE_EQ(cross.spine_level.at(LeafId{3}, k).total, spine1 / 2);
    }

    // Same pod, host 1 (leaf 0) → host 2 (leaf 1): turns around at the
    // pod-spine, so the core tier sees nothing.
    const fp::ThreeLevelPrediction same_pod = predict(HostId{1}, HostId{2}, failed);
    EXPECT_DOUBLE_EQ(same_pod.leaf_level.total(), 16640.0);
    EXPECT_DOUBLE_EQ(same_pod.spine_level.total(), 0.0);
    EXPECT_DOUBLE_EQ(same_pod.leaf_level.at(LeafId{1}, UplinkIndex{0}).by_src_leaf[0], spine0);
    EXPECT_DOUBLE_EQ(same_pod.leaf_level.at(LeafId{1}, UplinkIndex{1}).by_src_leaf[0], spine1);
    EXPECT_DOUBLE_EQ(same_pod.leaf_level.at(LeafId{1}, UplinkIndex{1}).total, spine1);

    // Same leaf, host 0 → host 1: never leaves leaf 0.
    const fp::ThreeLevelPrediction local = predict(HostId{0}, HostId{1}, failed);
    EXPECT_DOUBLE_EQ(local.leaf_level.total(), 0.0);
    EXPECT_DOUBLE_EQ(local.spine_level.total(), 0.0);
  }
}

// ---------------------------------------------------------------------------
// End-to-end with collectives + two-tier FlowPulse
// ---------------------------------------------------------------------------

struct FullRig3 {
  explicit FullRig3(ThreeLevelInfo shape, std::uint64_t bytes, std::uint32_t iterations,
                    std::uint64_t seed = 1)
      : sim{seed},
        net{sim, Rig3::make_config(shape, seed)},
        transports{sim, net},
        fps{net} {
    collective::CollectiveConfig cc;
    for (const HostId h : core::ids<HostId>(net.num_hosts())) cc.hosts.push_back(h);
    cc.schedule = collective::ring_reduce_scatter(net.num_hosts(), core::Bytes{bytes});
    cc.iterations = iterations;
    runner = std::make_unique<collective::CollectiveRunner>(sim, transports, std::move(cc));

    std::vector<HostId> hosts(net.num_hosts(), HostId{});
    for (const HostId h : core::ids<HostId>(net.num_hosts())) hosts[h.v()] = h;
    const auto demand = collective::DemandMatrix::from_schedule(
        runner->current_schedule(), hosts, net.num_hosts());
    const fp::ThreeLevelAnalyticalModel model{net.info(), 4096, kHeaderBytes};
    fps.set_prediction(model.predict(demand, net.routing()));
  }

  void run() {
    runner->start();
    sim.run();
    fps.flush();
  }

  Simulator sim;
  ThreeLevelFatTree net;
  transport::TransportLayer transports;
  fp::ThreeLevelFlowPulse fps;
  std::unique_ptr<collective::CollectiveRunner> runner;
};

// {4, 2, 2, 1} has as many pod-spines as leaves; the other shapes do not.
// The spine tier's per-sender breakdown must still hold one entry per leaf:
// sized per pod-spine, the model wrote past it and localization read past it.
constexpr std::array<ThreeLevelInfo, 5> kTierShapes{
    ThreeLevelInfo{4, 2, 2, 1}, ThreeLevelInfo{2, 4, 2, 1}, ThreeLevelInfo{2, 2, 4, 1},
    ThreeLevelInfo{3, 4, 2, 1}, ThreeLevelInfo{3, 2, 4, 1}};

::testing::Message shape_name(const ThreeLevelInfo& shape) {
  return ::testing::Message() << shape.pods << "x" << shape.leaves_per_pod << "x"
                              << shape.spines_per_pod;
}

TEST(ThreeLevelAnalyticalModel, LeafTierIsTheTwoLevelModel) {
  for (const ThreeLevelInfo& shape : kTierShapes) {
    SCOPED_TRACE(shape_name(shape));
    const std::uint32_t hosts = shape.num_hosts();
    // Not a multiple of the MTU, so pair demands end in short segments.
    const auto demand = collective::DemandMatrix::from_schedule(
        collective::ring_reduce_scatter(hosts, core::Bytes{1'000'003}),
        exp::all_hosts_ring(shape.leaf_tier()), hosts);
    RoutingState routing{shape.num_leaves(), shape.spines_per_pod};
    routing.set_known_failed(LeafId{1}, UplinkIndex{0});

    const fp::ThreeLevelPrediction three =
        fp::ThreeLevelAnalyticalModel{shape, 4096, kHeaderBytes}.predict(demand, routing);
    const fp::PortLoadMap two =
        fp::AnalyticalModel{shape.leaf_tier(), 4096, kHeaderBytes}.predict(demand, routing);
    ASSERT_EQ(three.leaf_level.leaves(), two.leaves());
    ASSERT_EQ(three.leaf_level.uplinks(), two.uplinks());
    for (const LeafId l : core::ids<LeafId>(two.leaves())) {
      for (const UplinkIndex u : core::ids<UplinkIndex>(two.uplinks())) {
        EXPECT_EQ(three.leaf_level.at(l, u).total, two.at(l, u).total);
        EXPECT_EQ(three.leaf_level.at(l, u).by_src_leaf, two.at(l, u).by_src_leaf);
      }
    }
  }
}

TEST(ThreeLevelFlowPulse, CleanRunQuietAtBothTiers) {
  for (const ThreeLevelInfo& shape : kTierShapes) {
    SCOPED_TRACE(shape_name(shape));
    FullRig3 rig{shape, 8ull << 20, 3};
    rig.run();
    EXPECT_TRUE(rig.runner->finished());
    for (const double dev : rig.fps.leaf_tier().per_iteration_max_dev()) EXPECT_LT(dev, 0.01);
    for (const double dev : rig.fps.spine_tier().per_iteration_max_dev()) EXPECT_LT(dev, 0.01);
  }
}

TEST(ThreeLevelFlowPulse, LeafLinkFaultSeenAtLeafTier) {
  FullRig3 rig{{4, 2, 2, 1}, 8ull << 20, 3};
  rig.net.set_leaf_link_fault(LeafId{3}, 1, FaultSpec::random_drop(0.05));
  rig.run();
  bool found = false;
  for (const auto& r : rig.fps.leaf_tier().faulty_results()) {
    for (const auto& a : r.alerts) {
      if (r.leaf == LeafId{3} && a.uplink == UplinkIndex{1} &&
          a.observed < a.predicted) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(ThreeLevelFlowPulse, CoreLinkFaultLocalizedAtSpineTier) {
  // A silent core↔pod-spine fault: the pod-spine monitor sees the full drop
  // rate on the corresponding core port, while each leaf port only sees it
  // diluted by 1/cores_per_group — spine-tier monitoring is what makes core
  // links localizable (the paper's §7 argument for two-level deployment).
  for (const ThreeLevelInfo& shape : kTierShapes) {
    SCOPED_TRACE(shape_name(shape));
    FullRig3 rig{shape, 16ull << 20, 3};
    rig.net.set_core_link_fault(/*pod=*/1, /*spine=*/0, /*k=*/1,
                                FaultSpec::random_drop(0.08));
    rig.run();
    bool spine_found = false;
    for (const auto& r : rig.fps.spine_tier().faulty_results()) {
      for (const auto& a : r.alerts) {
        // Row = pod 1's pod-spine 0; port 1 = core k=1. Every sender is
        // short there, so localization blames that very link.
        if (r.leaf.v() == rig.net.info().pod_spine_id(1, 0) && a.uplink == UplinkIndex{1} &&
            a.observed < a.predicted &&
            a.localization.verdict == fp::Localization::Verdict::kLocalLink) {
          spine_found = true;
        }
      }
    }
    EXPECT_TRUE(spine_found);

    // The spine tier's deviation must dominate the leaf tier's diluted view.
    double leaf_max = 0.0, spine_max = 0.0;
    for (const double d : rig.fps.leaf_tier().per_iteration_max_dev()) {
      leaf_max = std::max(leaf_max, d);
    }
    for (const double d : rig.fps.spine_tier().per_iteration_max_dev()) {
      spine_max = std::max(spine_max, d);
    }
    EXPECT_GT(spine_max, leaf_max);
  }
}

// The 1k golden (test_lanes.cc) injects only black holes, which never draw
// from the fabric's fault RNG. This one drops at random on both monitored
// tiers, so a switch whose ports sample faults from a different RNG moves
// its hash.
// Both faults are silent (telemetry counts no drop), and every message stays
// far below the PFC XOFF so no pause fires: audit builds arm a watchdog
// event per pause and would hash differently.
TEST(ClosScenarioSmall, RandomDropGolden) {
  exp::ClosScenarioConfig cfg;
  cfg.fabric.shape = ThreeLevelInfo{4, 2, 2, 2};
  cfg.collective_bytes = core::Bytes{256u << 10};
  cfg.iterations = 3;
  cfg.lanes = 0;
  cfg.leaf_faults.push_back({LeafId{5}, 1, FaultSpec::random_drop(0.05)});
  cfg.core_faults.push_back({2, 0, 1, FaultSpec::random_drop(0.05)});
  exp::ClosScenario scenario{cfg};
  const exp::ClosScenarioResult result = scenario.run();
  EXPECT_GT(result.fabric_counters.dropped_packets, core::Packets{0});
  EXPECT_EQ(result.fabric_counters.telemetry_dropped_packets, core::Packets{0});
  EXPECT_EQ(exp::clos_report_hash(result), 6729097530096880850ull);
}

}  // namespace
}  // namespace flowpulse::net
