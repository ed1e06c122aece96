// Collective tests: schedule construction, demand matrices, the runner's
// dependency machinery, data validation of the ring algebra, jitter, and
// iteration tagging.
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "collective/demand_matrix.h"
#include "collective/runner.h"
#include "collective/schedule.h"
#include "exp/scenario.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/three_level_system.h"
#include "net/fat_tree.h"
#include "net/three_level.h"
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

// Every send of `s`, rank by rank, each rank's in launch order.
std::vector<Send> sends_of(const CommSchedule& s) {
  std::vector<Send> out;
  s.for_each_send([&out](const Send& snd) { out.push_back(snd); });
  return out;
}

// How many sends each stage holds.
std::vector<std::size_t> stage_sizes(const CommSchedule& s) {
  std::vector<std::size_t> sizes(s.num_stages, 0);
  s.for_each_send([&sizes](const Send& snd) { ++sizes.at(snd.stage); });
  return sizes;
}

TEST(RingSchedule, AllReduceShape) {
  const CommSchedule s = ring_all_reduce(8, core::Bytes{8192});
  EXPECT_EQ(s.num_stages, 14u);  // 2(N-1)
  EXPECT_EQ(s.ranks, 8u);
  for (const std::size_t sends : stage_sizes(s)) {
    EXPECT_EQ(sends, 8u);  // every rank sends every stage
  }
  for (const Send& snd : sends_of(s)) {
    EXPECT_EQ(snd.dst_rank, (snd.src_rank + 1) % 8);  // ring successor
    EXPECT_EQ(snd.bytes, core::Bytes{1024});
  }
  // First 7 stages reduce, last 7 gather.
  EXPECT_EQ(s.reduce_stages, 7u);
}

TEST(RingSchedule, ReduceScatterIs31StagesFor32Ranks) {
  // The paper's §6 workload: a 31-stage Ring-AllReduce on 32 nodes.
  const CommSchedule s = ring_reduce_scatter(32, core::Bytes{32 << 20});
  EXPECT_EQ(s.num_stages, 31u);
  // Each of the 32 ranks sends one 1-MiB chunk per stage.
  EXPECT_EQ(s.wire_payload_bytes(), core::Bytes{31ull * 32ull * ((32ull << 20) / 32ull)});
}

TEST(RingSchedule, EachRankReceivesEveryChunkOnceInRs) {
  const CommSchedule s = ring_reduce_scatter(6, core::Bytes{6000});
  for (std::uint32_t r = 0; r < 6; ++r) {
    std::set<std::uint32_t> chunks;
    for (const Send& snd : sends_of(s)) {
      if (snd.dst_rank == r) {
        EXPECT_TRUE(chunks.insert(snd.chunk).second);
      }
    }
    EXPECT_EQ(chunks.size(), 5u);  // all but its own final chunk
  }
}

TEST(RingSchedule, TinyCollectiveSkipsEmptyChunks) {
  // 3 bytes over 8 ranks: chunks 3..7 are empty and must not emit sends.
  const CommSchedule s = ring_all_reduce(8, core::Bytes{3});
  for (const Send& snd : sends_of(s)) EXPECT_GT(snd.bytes, core::Bytes{0});
  EXPECT_EQ(s.wire_payload_bytes(), core::Bytes{3 * 7 * 2});
}

// Rank `rank`'s sends of a ring schedule as the stage-major formula lays
// them out: at stage k of a phase, every rank i forwards chunk (i − k) mod N
// (reduce-scatter) or (i + 1 − k) mod N (all-gather) to rank i + 1, and a
// zero-byte chunk sends nothing. A ring rank sends at most once per stage,
// so its sends in stage order are its launch order.
std::vector<Send> reference_ring_sends(CollectiveKind kind, std::uint32_t ranks,
                                       core::Bytes total, std::uint32_t rank) {
  std::vector<Send> sends;
  std::uint32_t stage = 0;
  auto phase = [&](bool gather) {
    for (std::uint32_t k = 0; k < ranks - 1; ++k, ++stage) {
      const std::uint32_t base = gather ? rank + 1 + ranks - k : rank + ranks - k;
      const std::uint32_t chunk = base % ranks;
      const core::Bytes bytes = chunk_bytes(total, ranks, chunk);
      if (bytes == core::Bytes{0}) continue;
      sends.push_back(Send{stage, rank, (rank + 1) % ranks, bytes, chunk});
    }
  };
  if (kind != CollectiveKind::kRingAllGather) phase(false);
  if (kind != CollectiveKind::kRingReduceScatter) phase(true);
  return sends;
}

TEST(RingSchedule, RunsExpandToTheStageMajorSends) {
  struct Ring {
    CollectiveKind kind;
    CommSchedule (*build)(std::uint32_t, core::Bytes);
    std::uint32_t phases;
  };
  for (const Ring ring : {Ring{CollectiveKind::kRingAllReduce, ring_all_reduce, 2},
                          Ring{CollectiveKind::kRingReduceScatter, ring_reduce_scatter, 1},
                          Ring{CollectiveKind::kRingAllGather, ring_all_gather, 1}}) {
    for (const std::uint32_t ranks : {2u, 3u, 8u, 1024u}) {
      for (const std::uint64_t total : {3ull, 1000ull, 1ull << 20, 1000003ull}) {
        SCOPED_TRACE(::testing::Message() << "kind " << static_cast<int>(ring.kind)
                                          << ", ranks " << ranks << ", total " << total);
        const CommSchedule s = ring.build(ranks, core::Bytes{total});
        EXPECT_EQ(s.num_stages, ring.phases * (ranks - 1));
        // O(ranks): at most three runs per rank per phase.
        EXPECT_LE(s.runs.size(), 3u * ring.phases * ranks);
        std::uint32_t rank = 0;
        std::vector<Send> got;
        bool same = true;  // report the first rank that differs, not every one
        auto check_rank = [&] {
          if (same) {
            const std::vector<Send> want =
                reference_ring_sends(ring.kind, ranks, core::Bytes{total}, rank);
            same = got == want;
            EXPECT_EQ(got, want) << "rank " << rank;
          }
          got.clear();
          ++rank;
        };
        s.for_each_send([&](const Send& snd) {
          while (snd.src_rank != rank) check_rank();
          got.push_back(snd);
        });
        while (rank < ranks) check_rank();
      }
    }
  }
}

TEST(AllToAll, UniformPairs) {
  const CommSchedule s = all_to_all(5, core::Bytes{100});
  ASSERT_EQ(s.num_stages, 1u);
  EXPECT_EQ(sends_of(s).size(), 20u);
  EXPECT_EQ(s.total_bytes, core::Bytes{2000});
}

TEST(AllToAll, RandomDemandWithinBounds) {
  sim::Rng rng{5};
  const CommSchedule s = all_to_all_random(4, core::Bytes{50}, core::Bytes{150}, rng);
  for (const Send& snd : sends_of(s)) {
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
  ASSERT_EQ(s.num_stages, 1u + 6u + 1u);
  const std::vector<Send> sends = sends_of(s);
  // Local reduce: 2 members per group send the full payload to the leader.
  EXPECT_EQ(stage_sizes(s).front(), 8u);
  EXPECT_GT(s.reduce_stages, 0u);
  for (const Send& snd : sends) {
    if (snd.stage != 0) continue;
    EXPECT_EQ(snd.dst_rank % 3, 0u);
    EXPECT_EQ(snd.src_rank / 3, snd.dst_rank / 3);  // same group
    EXPECT_EQ(snd.bytes, core::Bytes{12000});
  }
  // Ring stages run only between leaders (ranks 0, 3, 6, 9).
  for (const Send& snd : sends) {
    if (snd.stage == 0 || snd.stage + 1 == s.num_stages) continue;
    EXPECT_EQ(snd.src_rank % 3, 0u);
    EXPECT_EQ(snd.dst_rank % 3, 0u);
  }
  // Broadcast mirrors the reduce.
  EXPECT_LT(s.reduce_stages, s.num_stages);
  EXPECT_EQ(stage_sizes(s).back(), 8u);
}

TEST(HierarchicalRing, SingleMemberGroupsDegenerateToPlainRing) {
  const CommSchedule h = hierarchical_ring_all_reduce(4, 1, core::Bytes{8000});
  const CommSchedule r = ring_all_reduce(4, core::Bytes{8000});
  ASSERT_EQ(h.num_stages, r.num_stages);
  EXPECT_EQ(stage_sizes(h), stage_sizes(r));
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

// Every double of two port-load maps, compared bit for bit.
bool same_bits(const fp::PortLoadMap& a, const fp::PortLoadMap& b) {
  if (a.leaves() != b.leaves() || a.uplinks() != b.uplinks()) return false;
  for (const net::LeafId l : core::ids<net::LeafId>(a.leaves())) {
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(a.uplinks())) {
      const fp::PortLoad& x = a.at(l, u);
      const fp::PortLoad& y = b.at(l, u);
      if (std::bit_cast<std::uint64_t>(x.total) != std::bit_cast<std::uint64_t>(y.total) ||
          x.by_src_leaf.size() != y.by_src_leaf.size()) {
        return false;
      }
      for (std::size_t s = 0; s < x.by_src_leaf.size(); ++s) {
        if (std::bit_cast<std::uint64_t>(x.by_src_leaf[s]) !=
            std::bit_cast<std::uint64_t>(y.by_src_leaf[s])) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(DemandMatrix, ShuffledAddsMatchRowMajorFill) {
  // A 4x4x4 three-level shape with 2 hosts per leaf: 32 hosts, 1024 pairs.
  const net::ThreeLevelInfo shape{4, 4, 4, 2};
  const std::uint32_t hosts = shape.num_hosts();
  struct Entry {
    net::HostId src;
    net::HostId dst;
    core::Bytes bytes;
  };
  // 600 draws over 1024 pairs: many pairs repeat, most stay absent, and a
  // zero-byte add must not make a pair present.
  sim::Rng rng{27};
  std::vector<Entry> entries;
  std::vector<core::Bytes> dense(static_cast<std::size_t>(hosts) * hosts);
  for (int i = 0; i < 600; ++i) {
    const Entry e{net::HostId{static_cast<std::uint32_t>(rng.next_below(hosts))},
                  net::HostId{static_cast<std::uint32_t>(rng.next_below(hosts))},
                  core::Bytes{rng.next_below(3) == 0 ? 0 : 1 + rng.next_below(1u << 20)}};
    entries.push_back(e);
    dense[static_cast<std::size_t>(e.src.v()) * hosts + e.dst.v()] += e.bytes;
  }
  DemandMatrix ordered{hosts};
  for (const net::HostId src : core::ids<net::HostId>(hosts)) {
    for (const net::HostId dst : core::ids<net::HostId>(hosts)) {
      ordered.add(src, dst, dense[static_cast<std::size_t>(src.v()) * hosts + dst.v()]);
    }
  }
  // Shuffle (Fisher-Yates) so adds arrive in no particular order.
  for (std::size_t i = entries.size() - 1; i > 0; --i) {
    std::swap(entries[i], entries[rng.next_below(i + 1)]);
  }
  DemandMatrix shuffled{hosts};
  for (const Entry& e : entries) shuffled.add(e.src, e.dst, e.bytes);

  ASSERT_EQ(shuffled.pairs().size(), ordered.pairs().size());
  for (std::size_t i = 0; i < ordered.pairs().size(); ++i) {
    EXPECT_EQ(shuffled.pairs()[i].src, ordered.pairs()[i].src);
    EXPECT_EQ(shuffled.pairs()[i].dst, ordered.pairs()[i].dst);
    EXPECT_EQ(shuffled.pairs()[i].bytes, ordered.pairs()[i].bytes);
    EXPECT_GT(ordered.pairs()[i].bytes, core::Bytes{0});
  }
  EXPECT_EQ(shuffled.total(), ordered.total());
  for (const net::HostId src : core::ids<net::HostId>(hosts)) {
    for (const net::HostId dst : core::ids<net::HostId>(hosts)) {
      const core::Bytes want = dense[static_cast<std::size_t>(src.v()) * hosts + dst.v()];
      EXPECT_EQ(shuffled.at(src, dst), want);
      EXPECT_EQ(ordered.at(src, dst), want);
    }
  }

  // Predictions from either fill are bit-identical, with a known failure so
  // a row spreads over fewer spines.
  net::RoutingState routing{shape.num_leaves(), shape.spines_per_pod};
  routing.set_known_failed(net::LeafId{3}, net::UplinkIndex{1});
  const fp::AnalyticalModel two_level{shape.leaf_tier(), 4096, core::Bytes{64}};
  EXPECT_TRUE(same_bits(two_level.predict(shuffled, routing), two_level.predict(ordered, routing)));
  const fp::ThreeLevelAnalyticalModel three_level{shape, 4096, core::Bytes{64}};
  const fp::ThreeLevelPrediction a = three_level.predict(shuffled, routing);
  const fp::ThreeLevelPrediction b = three_level.predict(ordered, routing);
  EXPECT_TRUE(same_bits(a.leaf_level, b.leaf_level));
  EXPECT_TRUE(same_bits(a.spine_level, b.spine_level));
  EXPECT_GT(a.spine_level.total(), 0.0);
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
