// Collective tests: schedule construction, demand matrices, the runner's
// dependency machinery, data validation of the ring algebra, jitter, and
// iteration tagging.
#include <gtest/gtest.h>

#include <set>

#include "collective/demand_matrix.h"
#include "collective/runner.h"
#include "collective/schedule.h"
#include "exp/scenario.h"
#include "net/fat_tree.h"
#include "sim/simulator.h"
#include "transport/transport_layer.h"

namespace flowpulse::collective {
namespace {

using net::FatTree;
using net::FatTreeConfig;
using net::TopologyInfo;
using sim::Simulator;
using sim::Time;

TEST(ChunkBytes, SplitsExactly) {
  // 10 bytes over 4 chunks: 3,3,2,2.
  EXPECT_EQ(chunk_bytes(core::Bytes{10}, 4, 0), core::Bytes{3});
  EXPECT_EQ(chunk_bytes(core::Bytes{10}, 4, 1), core::Bytes{3});
  EXPECT_EQ(chunk_bytes(core::Bytes{10}, 4, 2), core::Bytes{2});
  EXPECT_EQ(chunk_bytes(core::Bytes{10}, 4, 3), core::Bytes{2});
  core::Bytes sum{};
  for (std::uint32_t c = 0; c < 7; ++c) sum += chunk_bytes(core::Bytes{1000003}, 7, c);
  EXPECT_EQ(sum, core::Bytes{1000003});
}

TEST(RingSchedule, AllReduceShape) {
  const CommSchedule s = ring_all_reduce(8, core::Bytes{8192});
  EXPECT_EQ(s.stages.size(), 14u);  // 2(N-1)
  EXPECT_EQ(s.ranks, 8u);
  for (const Stage& st : s.stages) {
    EXPECT_EQ(st.sends.size(), 8u);  // every rank sends every stage
    for (const Send& snd : st.sends) {
      EXPECT_EQ(snd.dst_rank, (snd.src_rank + 1) % 8);  // ring successor
      EXPECT_EQ(snd.bytes, core::Bytes{1024});
    }
  }
  // First 7 stages reduce, last 7 gather.
  for (std::size_t k = 0; k < 7; ++k) EXPECT_TRUE(s.stages[k].reduce);
  for (std::size_t k = 7; k < 14; ++k) EXPECT_FALSE(s.stages[k].reduce);
}

TEST(RingSchedule, ReduceScatterIs31StagesFor32Ranks) {
  // The paper's §6 workload: a 31-stage Ring-AllReduce on 32 nodes.
  const CommSchedule s = ring_reduce_scatter(32, core::Bytes{32 << 20});
  EXPECT_EQ(s.stages.size(), 31u);
  // Each of the 32 ranks sends one 1-MiB chunk per stage.
  EXPECT_EQ(s.wire_payload_bytes(), core::Bytes{31ull * 32ull * ((32ull << 20) / 32ull)});
}

TEST(RingSchedule, EachRankReceivesEveryChunkOnceInRs) {
  const CommSchedule s = ring_reduce_scatter(6, core::Bytes{6000});
  for (std::uint32_t r = 0; r < 6; ++r) {
    std::set<std::uint32_t> chunks;
    for (const Stage& st : s.stages) {
      for (const Send& snd : st.sends) {
        if (snd.dst_rank == r) {
          EXPECT_TRUE(chunks.insert(snd.chunk).second);
        }
      }
    }
    EXPECT_EQ(chunks.size(), 5u);  // all but its own final chunk
  }
}

TEST(RingSchedule, TinyCollectiveSkipsEmptyChunks) {
  // 3 bytes over 8 ranks: chunks 3..7 are empty and must not emit sends.
  const CommSchedule s = ring_all_reduce(8, core::Bytes{3});
  for (const Stage& st : s.stages) {
    for (const Send& snd : st.sends) EXPECT_GT(snd.bytes, core::Bytes{0});
  }
  EXPECT_EQ(s.wire_payload_bytes(), core::Bytes{3 * 7 * 2});
}

TEST(AllToAll, UniformPairs) {
  const CommSchedule s = all_to_all(5, core::Bytes{100});
  ASSERT_EQ(s.stages.size(), 1u);
  EXPECT_EQ(s.stages[0].sends.size(), 20u);
  EXPECT_EQ(s.total_bytes, core::Bytes{2000});
}

TEST(AllToAll, RandomDemandWithinBounds) {
  sim::Rng rng{5};
  const CommSchedule s = all_to_all_random(4, core::Bytes{50}, core::Bytes{150}, rng);
  for (const Send& snd : s.stages[0].sends) {
    EXPECT_GE(snd.bytes, core::Bytes{50});
    EXPECT_LE(snd.bytes, core::Bytes{150});
  }
}

TEST(HierarchicalRing, ScheduleShape) {
  // 4 groups of 3 ranks: 1 local-reduce stage, 2(4-1) ring stages over the
  // leaders, 1 local-broadcast stage.
  const CommSchedule s = hierarchical_ring_all_reduce(4, 3, core::Bytes{12000});
  EXPECT_EQ(s.kind, CollectiveKind::kHierarchicalRing);
  EXPECT_EQ(s.ranks, 12u);
  ASSERT_EQ(s.stages.size(), 1u + 6u + 1u);
  // Local reduce: 2 members per group send the full payload to the leader.
  EXPECT_EQ(s.stages.front().sends.size(), 8u);
  EXPECT_TRUE(s.stages.front().reduce);
  for (const Send& snd : s.stages.front().sends) {
    EXPECT_EQ(snd.dst_rank % 3, 0u);
    EXPECT_EQ(snd.src_rank / 3, snd.dst_rank / 3);  // same group
    EXPECT_EQ(snd.bytes, core::Bytes{12000});
  }
  // Ring stages run only between leaders (ranks 0, 3, 6, 9).
  for (std::size_t k = 1; k + 1 < s.stages.size(); ++k) {
    for (const Send& snd : s.stages[k].sends) {
      EXPECT_EQ(snd.src_rank % 3, 0u);
      EXPECT_EQ(snd.dst_rank % 3, 0u);
    }
  }
  // Broadcast mirrors the reduce.
  EXPECT_FALSE(s.stages.back().reduce);
  EXPECT_EQ(s.stages.back().sends.size(), 8u);
}

TEST(HierarchicalRing, SingleMemberGroupsDegenerateToPlainRing) {
  const CommSchedule h = hierarchical_ring_all_reduce(4, 1, core::Bytes{8000});
  const CommSchedule r = ring_all_reduce(4, core::Bytes{8000});
  ASSERT_EQ(h.stages.size(), r.stages.size());
  for (std::size_t k = 0; k < h.stages.size(); ++k) {
    EXPECT_EQ(h.stages[k].sends.size(), r.stages[k].sends.size());
  }
}

TEST(HierarchicalRing, LocalPhasesNeverReachSpines) {
  // 4 leaves x 3 hosts: run the hierarchical collective and verify spine
  // traffic equals the leaders' ring only (the §5.1 locality argument).
  net::FatTreeConfig cfg;
  cfg.shape = TopologyInfo{4, 2, 3, 1};
  Simulator sim{5};
  net::FatTree net{sim, cfg};
  transport::TransportLayer transports{sim, net};

  CollectiveConfig cc;
  for (const net::HostId h : core::ids<net::HostId>(12)) cc.hosts.push_back(h);
  cc.schedule = hierarchical_ring_all_reduce(4, 3, core::Bytes{600 * 1024});
  cc.iterations = 2;
  CollectiveRunner runner{sim, transports, std::move(cc)};
  runner.start();
  sim.run();
  EXPECT_TRUE(runner.finished());

  // Spine-visible payload: leaders' full ring = 2(G-1) x G x B/G per iter.
  const std::uint64_t ring_payload = 2ull * 3ull * 4ull * (600 * 1024 / 4);
  std::uint64_t spine_delivered = 0;
  for (const net::LeafId l : core::ids<net::LeafId>(4)) {
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(2)) {
      spine_delivered += net.downlink_counters(l, u).delivered_bytes().v();
    }
  }
  // Wire bytes exceed payload only by per-segment headers (~1.6%); local
  // reduce/broadcast (8 x 600 KiB per iteration) must NOT appear.
  const double per_iter = static_cast<double>(spine_delivered) / 2.0;
  EXPECT_GT(per_iter, ring_payload * 1.0);
  EXPECT_LT(per_iter, ring_payload * 1.05);
}

TEST(DemandMatrix, FromRingSchedule) {
  const CommSchedule s = ring_reduce_scatter(4, core::Bytes{4000});
  const std::vector<net::HostId> hosts{net::HostId{0}, net::HostId{1}, net::HostId{2},
                                       net::HostId{3}};
  const DemandMatrix m = DemandMatrix::from_schedule(s, hosts, 4);
  // Each rank sends 3 chunks of 1000 to its successor.
  EXPECT_EQ(m.at(net::HostId{0}, net::HostId{1}), core::Bytes{3000});
  EXPECT_EQ(m.at(net::HostId{3}, net::HostId{0}), core::Bytes{3000});
  EXPECT_EQ(m.at(net::HostId{0}, net::HostId{2}), core::Bytes{0});
  EXPECT_EQ(m.total(), core::Bytes{12000});
}

TEST(DemandMatrix, RespectsPlacement) {
  const CommSchedule s = ring_reduce_scatter(3, core::Bytes{300});
  const std::vector<net::HostId> hosts{net::HostId{5}, net::HostId{2},
                                       net::HostId{7}};  // non-trivial placement
  const DemandMatrix m = DemandMatrix::from_schedule(s, hosts, 8);
  EXPECT_EQ(m.at(net::HostId{5}, net::HostId{2}), core::Bytes{200});
  EXPECT_EQ(m.at(net::HostId{2}, net::HostId{7}), core::Bytes{200});
  EXPECT_EQ(m.at(net::HostId{7}, net::HostId{5}), core::Bytes{200});
  EXPECT_EQ(m.total(), core::Bytes{600});
}

// ---------------------------------------------------------------------------
// Runner integration
// ---------------------------------------------------------------------------

struct Rig {
  explicit Rig(std::uint32_t leaves = 4, std::uint32_t spines = 2, std::uint64_t seed = 1)
      : sim{seed}, net{sim, config(leaves, spines)}, transports{sim, net} {}
  static FatTreeConfig config(std::uint32_t leaves, std::uint32_t spines) {
    FatTreeConfig cfg;
    cfg.shape = TopologyInfo{leaves, spines, 1, 1};
    return cfg;
  }
  Simulator sim;
  FatTree net;
  transport::TransportLayer transports;
};

CollectiveConfig base_config(std::uint32_t ranks, core::Bytes bytes,
                             std::uint32_t iterations) {
  CollectiveConfig cc;
  for (std::uint32_t r = 0; r < ranks; ++r) cc.hosts.push_back(net::HostId{r});
  cc.schedule = ring_all_reduce(ranks, bytes);
  cc.iterations = iterations;
  cc.validate_data = true;
  return cc;
}

TEST(Runner, CompletesAllIterations) {
  Rig rig;
  CollectiveRunner runner{rig.sim, rig.transports, base_config(4, core::Bytes{64 * 1024}, 3)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_EQ(runner.completed_iterations(), 3u);
  EXPECT_EQ(runner.iteration_durations().size(), 3u);
}

TEST(Runner, AllReduceProducesCorrectSums) {
  Rig rig;
  CollectiveRunner runner{rig.sim, rig.transports, base_config(4, core::Bytes{64 * 1024}, 2)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.data_valid());
}

TEST(Runner, ReduceScatterProducesCorrectSums) {
  Rig rig;
  CollectiveConfig cc = base_config(4, core::Bytes{64 * 1024}, 2);
  cc.schedule = ring_reduce_scatter(4, core::Bytes{64 * 1024});
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_TRUE(runner.data_valid());
}

TEST(Runner, SurvivesSilentFaultAndStaysCorrect) {
  Rig rig;
  rig.net.set_link_fault(net::LeafId{1}, net::UplinkIndex{0},
                         net::FaultSpec::random_drop(0.1));
  CollectiveRunner runner{rig.sim, rig.transports, base_config(4, core::Bytes{128 * 1024}, 3)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_TRUE(runner.data_valid());  // transport reliability shields the app
}

TEST(Runner, JitterDelaysButCompletes) {
  Rig rig;
  CollectiveConfig cc = base_config(4, core::Bytes{64 * 1024}, 3);
  cc.max_jitter = Time::microseconds(5);
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_TRUE(runner.data_valid());
}

TEST(Runner, TagsPacketsWithIterationFlowId) {
  Rig rig;
  std::set<net::FlowId> seen;
  rig.net.leaf(net::LeafId{1}).set_ingress_tap([&](net::UplinkIndex, const net::Packet& p) {
    if (p.kind == net::PacketKind::kData) seen.insert(p.flow_id);
  });
  CollectiveConfig cc = base_config(4, core::Bytes{32 * 1024}, 3);
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.start();
  rig.sim.run();
  ASSERT_EQ(seen.size(), 3u);
  std::uint32_t iter = 0;
  for (const net::FlowId f : seen) {
    EXPECT_TRUE(net::flowid::is_collective(f));
    EXPECT_EQ(net::flowid::iteration_of(f), net::IterIndex{iter++});
  }
}

TEST(Runner, UntaggedJobProducesNoSentinel) {
  Rig rig;
  bool sentinel_seen = false;
  rig.net.leaf(net::LeafId{1}).set_ingress_tap([&](net::UplinkIndex, const net::Packet& p) {
    if (net::flowid::is_collective(p.flow_id)) sentinel_seen = true;
  });
  CollectiveConfig cc = base_config(4, core::Bytes{32 * 1024}, 2);
  cc.tag_flow = false;
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_FALSE(sentinel_seen);
}

TEST(Runner, ComputeGapSeparatesIterations) {
  Rig rig;
  CollectiveConfig cc = base_config(4, core::Bytes{32 * 1024}, 2);
  cc.compute_gap = Time::microseconds(100);
  std::vector<Time> starts;
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.add_iteration_hook(
      [&](net::IterIndex, Time start, Time) { starts.push_back(start); });
  runner.start();
  rig.sim.run();
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_GE(starts[1] - starts[0], Time::microseconds(100));
}

TEST(Runner, TwoParallelJobsShareFabric) {
  Rig rig{8, 4};
  // Job A: measured collective on even hosts. Job B: background on odd.
  CollectiveConfig a;
  a.hosts = {net::HostId{0}, net::HostId{2}, net::HostId{4}, net::HostId{6}};
  a.schedule = ring_all_reduce(4, core::Bytes{64 * 1024});
  a.iterations = 2;
  a.validate_data = true;
  a.job_id = 0;
  CollectiveConfig b;
  b.hosts = {net::HostId{1}, net::HostId{3}, net::HostId{5}, net::HostId{7}};
  b.schedule = ring_all_reduce(4, core::Bytes{64 * 1024});
  b.iterations = 2;
  b.validate_data = true;
  b.job_id = 1;
  b.priority = net::Priority::kBackground;
  b.tag_flow = false;
  CollectiveRunner ra{rig.sim, rig.transports, std::move(a)};
  CollectiveRunner rb{rig.sim, rig.transports, std::move(b)};
  ra.start();
  rb.start();
  rig.sim.run();
  EXPECT_TRUE(ra.finished());
  EXPECT_TRUE(rb.finished());
  EXPECT_TRUE(ra.data_valid());
  EXPECT_TRUE(rb.data_valid());
}

TEST(Runner, DynamicScheduleGeneratorRunsEveryIteration) {
  Rig rig;
  CollectiveConfig cc;
  cc.hosts = {net::HostId{0}, net::HostId{1}, net::HostId{2}, net::HostId{3}};
  cc.iterations = 3;
  cc.schedule_generator = [](std::uint32_t, sim::Rng& rng) {
    return all_to_all_random(4, core::Bytes{1024}, core::Bytes{8192}, rng);
  };
  CollectiveRunner runner{rig.sim, rig.transports, std::move(cc)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
}

class RingSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RingSizeTest, AllReduceCorrectAcrossRingSizes) {
  const std::uint32_t ranks = GetParam();
  Rig rig{ranks, ranks / 2, 17};
  CollectiveRunner runner{rig.sim, rig.transports, base_config(ranks, core::Bytes{16 * 1024}, 1)};
  runner.start();
  rig.sim.run();
  EXPECT_TRUE(runner.finished());
  EXPECT_TRUE(runner.data_valid());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSizeTest, ::testing::Values(2, 3, 4, 6, 8, 16));

}  // namespace
}  // namespace flowpulse::collective
