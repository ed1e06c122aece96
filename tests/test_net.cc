// Unit tests for the fabric: egress queuing discipline, PFC, fault models,
// routing with known failures, spray policies, topology wiring.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "core/ring.h"
#include "core/strong_id.h"
#include "net/egress_port.h"
#include "net/fat_tree.h"
#include "net/fault.h"
#include "net/packet_pool.h"
#include "net/routing.h"
#include "net/switch.h"
#include "sim/simulator.h"

namespace flowpulse::net {
namespace {

using sim::Simulator;
using sim::Time;

/// Test device that records everything it receives.
class SinkDevice : public Device {
 public:
  void receive(Packet p, PortIndex in_port) override {
    packets.push_back(p);
    ports.push_back(in_port);
    times.push_back(now ? *now : Time::zero());
  }
  std::vector<Packet> packets;
  std::vector<PortIndex> ports;
  std::vector<Time> times;
  const Time* now = nullptr;
};

Packet make_packet(std::uint32_t size, Priority prio = Priority::kCollective) {
  Packet p;
  p.size_bytes = core::Bytes{size};
  p.priority = prio;
  return p;
}

class EgressPortTest : public ::testing::Test {
 protected:
  EgressPortTest()
      : port_{sim_, pool_, LinkParams{core::GbitsPerSec{400.0}, Time::nanoseconds(100)}, "t",
              nullptr, sim_.rng()} {
    port_.connect(&sink_, PortIndex{7});
  }
  Simulator sim_{1};
  PacketPool pool_;
  SinkDevice sink_;
  EgressPort port_;
};

TEST_F(EgressPortTest, DeliversAfterSerializationAndPropagation) {
  port_.enqueue(make_packet(4096));
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(sink_.ports[0], PortIndex{7});
  // 4096 B at 400 Gbps = 81.92 ns serialization + 100 ns propagation.
  EXPECT_EQ(sim_.now().ps(), 81'920 + 100'000);
}

TEST_F(EgressPortTest, SerializesBackToBack) {
  port_.enqueue(make_packet(4096));
  port_.enqueue(make_packet(4096));
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 2u);
  // Second packet finishes serializing at 2×81.92 ns, arrives +100 ns.
  EXPECT_EQ(sim_.now().ps(), 2 * 81'920 + 100'000);
}

TEST_F(EgressPortTest, StrictPriorityOrder) {
  // While a background packet is in flight, queue one of each class; the
  // control packet must jump ahead of collective, which jumps background.
  port_.enqueue(make_packet(4096, Priority::kBackground));
  port_.enqueue(make_packet(1000, Priority::kBackground));
  port_.enqueue(make_packet(1000, Priority::kCollective));
  port_.enqueue(make_packet(1000, Priority::kControl));
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 4u);
  EXPECT_EQ(sink_.packets[0].priority, Priority::kBackground);  // in flight first
  EXPECT_EQ(sink_.packets[1].priority, Priority::kControl);
  EXPECT_EQ(sink_.packets[2].priority, Priority::kCollective);
  EXPECT_EQ(sink_.packets[3].priority, Priority::kBackground);
}

TEST_F(EgressPortTest, PauseBlocksClassButNotOthers) {
  port_.set_paused(Priority::kBackground, true);
  port_.enqueue(make_packet(1000, Priority::kBackground));
  port_.enqueue(make_packet(1000, Priority::kCollective));
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(sink_.packets[0].priority, Priority::kCollective);
  EXPECT_EQ(port_.queued_bytes(Priority::kBackground), core::Bytes{1000});
  port_.set_paused(Priority::kBackground, false);
  sim_.run();
  EXPECT_EQ(sink_.packets.size(), 2u);
}

TEST_F(EgressPortTest, PauseDoesNotAbortInFlightPacket) {
  port_.enqueue(make_packet(4096, Priority::kCollective));
  port_.set_paused(Priority::kCollective, true);  // while serializing
  sim_.run();
  EXPECT_EQ(sink_.packets.size(), 1u);
}

TEST_F(EgressPortTest, CountersTrackTxAndQueue) {
  port_.enqueue(make_packet(1000));
  port_.enqueue(make_packet(2000));
  EXPECT_EQ(port_.queued_bytes(), core::Bytes{2000});  // first already dequeued to wire
  sim_.run();
  EXPECT_EQ(port_.counters().tx_packets, core::Packets{2});
  EXPECT_EQ(port_.counters().tx_bytes, core::Bytes{3000});
  EXPECT_EQ(port_.counters().dropped_packets, core::Packets{0});
  EXPECT_EQ(port_.queued_bytes(), core::Bytes{0});
}

TEST_F(EgressPortTest, DisconnectFaultDropsEverything) {
  port_.set_fault(FaultSpec::disconnect());
  for (int i = 0; i < 10; ++i) port_.enqueue(make_packet(1000));
  sim_.run();
  EXPECT_TRUE(sink_.packets.empty());
  EXPECT_EQ(port_.counters().dropped_packets, core::Packets{10});
  EXPECT_EQ(port_.counters().delivered_packets(), core::Packets{0});
}

TEST_F(EgressPortTest, RandomDropMatchesRate) {
  port_.set_fault(FaultSpec::random_drop(0.1));
  const int n = 20000;
  for (int i = 0; i < n; ++i) port_.enqueue(make_packet(100));
  sim_.run();
  const double rate =
      port_.counters().dropped_packets.dbl() / port_.counters().tx_packets.dbl();
  EXPECT_NEAR(rate, 0.1, 0.01);
  EXPECT_EQ(sink_.packets.size(), port_.counters().delivered_packets().v());
}

TEST_F(EgressPortTest, TransientFaultWindow) {
  // Fault active only within [1us, 2us): packets sent before and after
  // survive, packets inside are dropped.
  port_.set_fault(
      FaultSpec::black_hole(Time::microseconds(1), Time::microseconds(2)));
  // One packet now (finishes ~82ns: before window), one inside the window,
  // one after it.
  port_.enqueue(make_packet(4096));
  sim_.schedule_at(Time::microseconds(1), [this] { port_.enqueue(make_packet(4096)); });
  sim_.schedule_at(Time::microseconds(3), [this] { port_.enqueue(make_packet(4096)); });
  sim_.run();
  EXPECT_EQ(sink_.packets.size(), 2u);
  EXPECT_EQ(port_.counters().dropped_packets, core::Packets{1});
}

TEST_F(EgressPortTest, TxHookSeesWireAndDrops) {
  port_.set_fault(FaultSpec::disconnect());
  int on_wire = 0, dropped = 0;
  port_.set_tx_hook([&](const Packet&, EgressPort::TxEvent ev) {
    if (ev == EgressPort::TxEvent::kOnWire) ++on_wire;
    if (ev == EgressPort::TxEvent::kDropped) ++dropped;
  });
  port_.enqueue(make_packet(100));
  sim_.run();
  EXPECT_EQ(on_wire, 0);
  EXPECT_EQ(dropped, 1);
}

TEST_F(EgressPortTest, TxHookMayEnqueueOnTheSamePool) {
  // A second port queues into the fixture's pool. While the first packet's
  // kOnWire hook runs, it enqueues enough packets there to grow the pool,
  // then reads the packet it was handed: a hook handed a reference into the
  // pool's old storage reads freed memory (ASan: heap-use-after-free).
  EgressPort other{sim_, pool_, LinkParams{core::GbitsPerSec{400.0}, Time::nanoseconds(100)},
                   "u", nullptr, sim_.rng()};
  other.connect(&sink_, PortIndex{8});
  constexpr std::uint64_t kFirst = 1000;
  constexpr std::uint64_t kBurst = 64;
  std::uint64_t seen = 0;
  port_.set_tx_hook([&](const Packet& p, EgressPort::TxEvent ev) {
    if (ev != EgressPort::TxEvent::kOnWire || seen != 0) return;
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      Packet q = make_packet(200);
      q.msg_id = i;
      other.enqueue(q);
    }
    seen = p.msg_id;
  });
  Packet first = make_packet(4096);
  first.msg_id = kFirst;
  first.seq = 7;
  port_.enqueue(first);
  sim_.run();

  EXPECT_EQ(seen, kFirst);
  ASSERT_EQ(sink_.packets.size(), kBurst + 1);
  std::uint64_t next = 0;
  for (std::size_t i = 0; i < sink_.packets.size(); ++i) {
    const Packet& p = sink_.packets[i];
    if (sink_.ports[i] == PortIndex{7}) {
      EXPECT_EQ(p.msg_id, kFirst);
      EXPECT_EQ(p.seq, 7u);
      EXPECT_EQ(p.size_bytes, core::Bytes{4096});
    } else {
      EXPECT_EQ(p.msg_id, next++) << "delivery " << i;
      EXPECT_EQ(p.size_bytes, core::Bytes{200});
    }
  }
  EXPECT_EQ(next, kBurst);
  EXPECT_EQ(pool_.live(), 0u);
}

TEST_F(EgressPortTest, ClassQueuesKeepOrderAcrossRingGrowthAndWrappedPause) {
  // Every class queues more packets than a ring's first allocation, and the
  // collective class is paused and resumed while its ring wraps.
  constexpr std::array<Priority, 3> kClasses{Priority::kControl, Priority::kCollective,
                                             Priority::kBackground};
  const auto bytes_of = [](Priority prio) { return 1000u * (1u + priority_index(prio)); };
  std::array<std::uint64_t, 3> next_tag{};
  const auto enqueue = [&](Priority prio, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Packet p = make_packet(bytes_of(prio), prio);
      p.msg_id = next_tag[priority_index(prio)]++;
      port_.enqueue(p);
    }
  };
  const auto expect_queued = [&](std::array<std::size_t, 3> per_class) {
    core::Bytes total{};
    std::size_t packets = 0;
    for (const Priority prio : kClasses) {
      const std::size_t n = per_class[priority_index(prio)];
      EXPECT_EQ(port_.queued_bytes(prio), core::Bytes{n * bytes_of(prio)});
      total += core::Bytes{n * bytes_of(prio)};
      packets += n;
    }
    EXPECT_EQ(port_.queued_bytes(), total);
    EXPECT_EQ(port_.queued_packets(), packets);
#if FP_AUDIT_ENABLED
    port_.audit_verify_quiescent();  // recounts the rings against the ledger
#endif
  };

  const std::size_t first = core::Ring<Packet>::kInitialCapacity + 3;  // grows to 2× the first
  for (const Priority prio : kClasses) port_.set_paused(prio, true);
  for (const Priority prio : kClasses) enqueue(prio, first);
  expect_queued({first, first, first});

  // Five collective packets leave (2000 B = 40 ns each), then the class is
  // paused again: its ring's head sits at slot 5.
  port_.set_paused(Priority::kCollective, false);
  sim_.run_until(Time::nanoseconds(170));
  port_.set_paused(Priority::kCollective, true);
  sim_.run();  // the fifth, in flight at the pause, still completes
  ASSERT_EQ(sink_.packets.size(), 5u);
  // Fill the collective ring to its 2× capacity, wrapped past its end.
  const std::size_t refill = 2 * core::Ring<Packet>::kInitialCapacity - (first - 5);
  enqueue(Priority::kCollective, refill);
  expect_queued({first, first - 5 + refill, first});

  for (const Priority prio : kClasses) port_.set_paused(prio, false);
  sim_.run();
  expect_queued({0, 0, 0});

  // Strict priority from the resume on, FIFO within each class.
  std::vector<std::pair<Priority, std::uint64_t>> want;
  for (std::uint64_t t = 0; t < 5; ++t) want.emplace_back(Priority::kCollective, t);
  for (const Priority prio : kClasses) {
    for (std::uint64_t t = (prio == Priority::kCollective ? 5 : 0);
         t < next_tag[priority_index(prio)]; ++t) {
      want.emplace_back(prio, t);
    }
  }
  ASSERT_EQ(sink_.packets.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(sink_.packets[i].priority, want[i].first) << "delivery " << i;
    EXPECT_EQ(sink_.packets[i].msg_id, want[i].second) << "delivery " << i;
  }
}

// ---------------------------------------------------------------------------
// PacketPool
// ---------------------------------------------------------------------------

TEST(PacketPool, ReleasedSlotIsHandedOutNext) {
  PacketPool pool;
  const PacketRef a = pool.put(make_packet(100));
  const PacketRef b = pool.put(make_packet(200));
  const PacketRef c = pool.put(make_packet(300));
  pool.release(b);
  EXPECT_EQ(pool.put(make_packet(400)), b);
  pool.release(a);
  pool.release(c);
  // Last in, first out.
  EXPECT_EQ(pool.put(make_packet(500)), c);
  EXPECT_EQ(pool.put(make_packet(600)), a);
  EXPECT_EQ(pool[b].size_bytes, core::Bytes{400});
  EXPECT_EQ(pool[c].size_bytes, core::Bytes{500});
  EXPECT_EQ(pool[a].size_bytes, core::Bytes{600});
}

TEST(PacketPool, FieldsSurviveGrowth) {
  PacketPool pool;
  Packet first = make_packet(1088, Priority::kBackground);
  first.flow_id = 0xabcdef;
  first.src = HostId{3};
  first.dst = HostId{9};
  first.msg_id = 42;
  first.seq = 5;
  first.ack_bitmap = 0x8000000000000001ull;
  first.pfc_ingress = PortIndex{2};
  first.kind = PacketKind::kAck;
  first.retx = 1;
  const PacketRef ref = pool.put(first);
  std::vector<PacketRef> refs;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    Packet p = make_packet(64 + i);
    p.msg_id = i;
    refs.push_back(pool.put(p));
  }
  const Packet& got = pool[ref];
  EXPECT_EQ(got.flow_id, first.flow_id);
  EXPECT_EQ(got.src, first.src);
  EXPECT_EQ(got.dst, first.dst);
  EXPECT_EQ(got.msg_id, first.msg_id);
  EXPECT_EQ(got.seq, first.seq);
  EXPECT_EQ(got.ack_bitmap, first.ack_bitmap);
  EXPECT_EQ(got.size_bytes, first.size_bytes);
  EXPECT_EQ(got.pfc_ingress, first.pfc_ingress);
  EXPECT_EQ(got.kind, first.kind);
  EXPECT_EQ(got.priority, first.priority);
  EXPECT_EQ(got.retx, first.retx);
  for (std::uint32_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(pool[refs[i]].msg_id, i);
    EXPECT_EQ(pool[refs[i]].size_bytes, core::Bytes{64 + i});
  }
}

TEST(PacketPool, LiveCountsPutsMinusReleases) {
  PacketPool pool;
  EXPECT_EQ(pool.live(), 0u);
  const PacketRef a = pool.put(make_packet(100));
  const PacketRef b = pool.put(make_packet(100));
  EXPECT_EQ(pool.live(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  const Packet out = pool.take(b);
  EXPECT_EQ(out.size_bytes, core::Bytes{100});
  EXPECT_EQ(pool.live(), 0u);
  (void)pool.put(make_packet(100));
  EXPECT_EQ(pool.live(), 1u);
}

// ---------------------------------------------------------------------------
// FaultSpec
// ---------------------------------------------------------------------------

TEST(FaultSpec, ActivityWindow) {
  const FaultSpec f =
      FaultSpec::random_drop(0.5, Time::microseconds(10), Time::microseconds(20));
  EXPECT_FALSE(f.active_at(Time::microseconds(9)));
  EXPECT_TRUE(f.active_at(Time::microseconds(10)));
  EXPECT_TRUE(f.active_at(Time::microseconds(19)));
  EXPECT_FALSE(f.active_at(Time::microseconds(20)));
}

TEST(FaultSpec, NoneNeverDrops) {
  sim::Rng rng{1};
  FaultModel m;
  m.set_spec(FaultSpec::none());
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(m.should_drop(Time::zero(), rng));
}

TEST(FaultModel, GilbertElliottLongRunLossMatches) {
  // 5% of packets in bad state, mean burst 20 packets, 100% loss while bad
  // → long-run loss ≈ 5%.
  sim::Rng rng{7};
  FaultModel m;
  m.set_spec(FaultSpec::gilbert_elliott(0.05, 20.0));
  const int n = 200000;
  int drops = 0;
  for (int i = 0; i < n; ++i) {
    if (m.should_drop(Time::zero(), rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.05, 0.01);
}

TEST(FaultModel, GilbertElliottPartialLossMatchesStationaryProduct) {
  // 20% of packets in the bad state at 50% loss → long-run loss ≈ 10%.
  sim::Rng rng{11};
  FaultModel m;
  m.set_spec(FaultSpec::gilbert_elliott(0.2, 15.0, 0.5));
  const int n = 200000;
  int drops = 0;
  for (int i = 0; i < n; ++i) {
    if (m.should_drop(Time::zero(), rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.2 * 0.5, 0.01);
}

TEST(FaultModel, GilbertElliottMeanBurstLengthMatches) {
  // The bad-state sojourn is geometric with mean 1/P(bad→good); measure it
  // from the chain itself (in_bad_state) so loss sampling can't blur it.
  sim::Rng rng{13};
  FaultModel m;
  m.set_spec(FaultSpec::gilbert_elliott(0.05, 20.0));
  int bursts = 0;
  std::int64_t bad_packets = 0;
  bool prev_bad = false;
  for (int i = 0; i < 400000; ++i) {
    (void)m.should_drop(Time::zero(), rng);
    const bool bad = m.in_bad_state();
    if (bad) {
      ++bad_packets;
      if (!prev_bad) ++bursts;
    }
    prev_bad = bad;
  }
  ASSERT_GT(bursts, 100);  // enough bursts for a stable mean
  const double mean_burst = static_cast<double>(bad_packets) / bursts;
  EXPECT_NEAR(mean_burst, 20.0, 2.0);
}

TEST(FaultModel, GilbertElliottLossesAreBursty) {
  // Compare run-length statistics against an independent-drop link with the
  // same average rate: bursts make consecutive drops far more likely.
  sim::Rng rng{9};
  FaultModel ge;
  ge.set_spec(FaultSpec::gilbert_elliott(0.05, 20.0));
  FaultModel iid;
  iid.set_spec(FaultSpec::random_drop(0.05));
  auto consecutive_pairs = [&rng](FaultModel& m) {
    bool prev = false;
    int pairs = 0;
    for (int i = 0; i < 100000; ++i) {
      const bool d = m.should_drop(Time::zero(), rng);
      if (d && prev) ++pairs;
      prev = d;
    }
    return pairs;
  };
  const int ge_pairs = consecutive_pairs(ge);
  const int iid_pairs = consecutive_pairs(iid);
  EXPECT_GT(ge_pairs, iid_pairs * 5);
}

TEST(FaultSpec, FlapWindowsGateActivity) {
  // Active the first 200 µs of every 1 ms, starting at 10 µs.
  const FaultSpec f = FaultSpec::black_hole(Time::microseconds(10))
                          .with_flap(Time::milliseconds(1), Time::microseconds(200));
  EXPECT_FALSE(f.active_at(Time::microseconds(9)));
  EXPECT_TRUE(f.active_at(Time::microseconds(10)));
  EXPECT_TRUE(f.active_at(Time::microseconds(209)));
  EXPECT_FALSE(f.active_at(Time::microseconds(210)));
  EXPECT_FALSE(f.active_at(Time::microseconds(1009)));
  EXPECT_TRUE(f.active_at(Time::microseconds(1010)));  // second burst
  EXPECT_FALSE(f.active_at(Time::microseconds(1210)));
}

TEST(FaultSpec, ActiveDuringSeesBurstsInsideWindow) {
  const FaultSpec f = FaultSpec::black_hole()
                          .with_flap(Time::milliseconds(1), Time::microseconds(200));
  // Fully inside an idle stretch.
  EXPECT_FALSE(f.active_during(Time::microseconds(300), Time::microseconds(900)));
  // Overlaps the start of the second burst.
  EXPECT_TRUE(f.active_during(Time::microseconds(300), Time::microseconds(1100)));
  // Opens inside a burst.
  EXPECT_TRUE(f.active_during(Time::microseconds(100), Time::microseconds(150)));
  // Clipped by the fault's own [start, end) bounds.
  const FaultSpec g = FaultSpec::black_hole(Time::microseconds(10), Time::microseconds(20))
                          .with_flap(Time::milliseconds(1), Time::microseconds(200));
  EXPECT_FALSE(g.active_during(Time::microseconds(30), Time::microseconds(500)));
  EXPECT_TRUE(g.active_during(Time::zero(), Time::microseconds(15)));
}

TEST_F(EgressPortTest, FlappingFaultDropsOnlyDuringBursts) {
  // Black hole active the first 1 µs of every 3 µs: a packet sent inside a
  // burst dies, packets in the idle stretches and later bursts behave the
  // same way.
  port_.set_fault(FaultSpec::black_hole().with_flap(Time::microseconds(3),
                                                    Time::microseconds(1)));
  port_.enqueue(make_packet(4096));  // t≈0: inside burst 1 → dropped
  sim_.schedule_at(Time::microseconds(2),
                   [this] { port_.enqueue(make_packet(4096)); });  // idle → delivered
  sim_.schedule_at(Time::microseconds(3),
                   [this] { port_.enqueue(make_packet(4096)); });  // burst 2 → dropped
  sim_.schedule_at(Time::microseconds(5),
                   [this] { port_.enqueue(make_packet(4096)); });  // idle → delivered
  sim_.run();
  EXPECT_EQ(sink_.packets.size(), 2u);
  EXPECT_EQ(port_.counters().dropped_packets, core::Packets{2});
}

// ---------------------------------------------------------------------------
// RoutingState
// ---------------------------------------------------------------------------

TEST(RoutingState, AllValidWhenHealthy) {
  RoutingState r{4, 8};
  EXPECT_EQ(r.valid_uplinks(LeafId{0}, LeafId{1}).size(), 8u);
}

TEST(RoutingState, ExcludesFailuresAtBothEnds) {
  RoutingState r{4, 8};
  r.set_known_failed(LeafId{0}, UplinkIndex{3});  // src-side failure
  r.set_known_failed(LeafId{1}, UplinkIndex{5});  // dst-side failure
  const auto& valid = r.valid_uplinks(LeafId{0}, LeafId{1});
  EXPECT_EQ(valid.size(), 6u);
  for (const UplinkIndex u : valid) {
    EXPECT_NE(u, UplinkIndex{3});
    EXPECT_NE(u, UplinkIndex{5});
  }
  // A pair not touching the failed leaves keeps only its own exclusions.
  EXPECT_EQ(r.valid_uplinks(LeafId{2}, LeafId{3}).size(), 8u);
}

TEST(RoutingState, CacheInvalidatedOnUpdate) {
  RoutingState r{2, 4};
  EXPECT_EQ(r.valid_uplinks(LeafId{0}, LeafId{1}).size(), 4u);
  r.set_known_failed(LeafId{0}, UplinkIndex{0});
  EXPECT_EQ(r.valid_uplinks(LeafId{0}, LeafId{1}).size(), 3u);
  r.set_known_failed(LeafId{0}, UplinkIndex{0}, false);
  EXPECT_EQ(r.valid_uplinks(LeafId{0}, LeafId{1}).size(), 4u);
}

TEST(RoutingState, FailedCount) {
  RoutingState r{2, 4};
  r.set_known_failed(LeafId{1}, UplinkIndex{0});
  r.set_known_failed(LeafId{1}, UplinkIndex{2});
  EXPECT_EQ(r.known_failed_count(LeafId{1}), 2u);
  EXPECT_EQ(r.known_failed_count(LeafId{0}), 0u);
}

// ---------------------------------------------------------------------------
// FatTree wiring + forwarding
// ---------------------------------------------------------------------------

FatTreeConfig small_config() {
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{4, 2, 2, 1};  // 4 leaves × 2 spines, 2 hosts/leaf
  return cfg;
}

TEST(FatTree, TopologyInfoMath) {
  const TopologyInfo info{4, 2, 2, 1};
  EXPECT_EQ(info.num_hosts(), 8u);
  EXPECT_EQ(info.uplinks_per_leaf(), 2u);
  EXPECT_EQ(info.leaf_of(HostId{5}), LeafId{2});
  EXPECT_EQ(info.local_index(HostId{5}), 1u);
  EXPECT_EQ(info.spine_of(UplinkIndex{1}), SpineId{1});
}

TEST(FatTree, TopologyInfoParallelLinks) {
  const TopologyInfo info{4, 2, 1, 2};  // 2 spines × 2 lanes = 4 uplinks
  EXPECT_EQ(info.uplinks_per_leaf(), 4u);
  EXPECT_EQ(info.spine_of(UplinkIndex{0}), SpineId{0});
  EXPECT_EQ(info.spine_of(UplinkIndex{1}), SpineId{0});
  EXPECT_EQ(info.spine_of(UplinkIndex{2}), SpineId{1});
  EXPECT_EQ(info.lane_of(UplinkIndex{3}), 1u);
  EXPECT_EQ(info.spine_port(LeafId{2}, UplinkIndex{3}), PortIndex{5});  // leaf 2, lane 1 → port 2*2+1
}

TEST(FatTree, LocalTrafficStaysUnderLeaf) {
  Simulator sim{1};
  FatTree net{sim, small_config()};
  std::vector<Packet> got;
  net.host(HostId{1}).set_rx_handler([&](const Packet& p) { got.push_back(p); });

  Packet p = make_packet(1000);
  p.src = HostId{0};
  p.dst = HostId{1};  // same leaf as host 0
  net.host(HostId{0}).nic().enqueue(p);
  sim.run();

  ASSERT_EQ(got.size(), 1u);
  for (const SpineId s : core::ids<SpineId>(2)) {
    EXPECT_EQ(net.spine(s).counters().forwarded_packets, core::Packets{0});
  }
}

TEST(FatTree, RemoteTrafficCrossesOneSpine) {
  Simulator sim{1};
  FatTree net{sim, small_config()};
  std::vector<Packet> got;
  net.host(HostId{7}).set_rx_handler([&](const Packet& p) { got.push_back(p); });

  Packet p = make_packet(1000);
  p.src = HostId{0};
  p.dst = HostId{7};  // leaf 3
  net.host(HostId{0}).nic().enqueue(p);
  sim.run();

  ASSERT_EQ(got.size(), 1u);
  const core::Packets spine_fwd = net.spine(SpineId{0}).counters().forwarded_packets +
                                  net.spine(SpineId{1}).counters().forwarded_packets;
  EXPECT_EQ(spine_fwd, core::Packets{1});
}

TEST(FatTree, SprayCoversAllUplinksUnderLoad) {
  Simulator sim{1};
  FatTreeConfig cfg = small_config();
  cfg.spray = SprayPolicy::kAdaptive;
  FatTree net{sim, cfg};
  int got = 0;
  net.host(HostId{7}).set_rx_handler([&](const Packet&) { ++got; });

  for (int i = 0; i < 200; ++i) {
    Packet p = make_packet(1000);
    p.src = HostId{0};
    p.dst = HostId{7};
    p.seq = static_cast<std::uint32_t>(i);
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  EXPECT_EQ(got, 200);
  // Adaptive spraying must use both uplinks roughly equally.
  const auto& up0 = net.uplink_counters(LeafId{0}, UplinkIndex{0});
  const auto& up1 = net.uplink_counters(LeafId{0}, UplinkIndex{1});
  EXPECT_NEAR(up0.tx_packets.dbl(), 100.0, 10.0);
  EXPECT_NEAR(up1.tx_packets.dbl(), 100.0, 10.0);
}

TEST(FatTree, RandomSprayApproximatelyUniform) {
  Simulator sim{1};
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{2, 4, 1, 1};
  cfg.spray = SprayPolicy::kRandom;
  FatTree net{sim, cfg};
  net.host(HostId{1}).set_rx_handler([](const Packet&) {});
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{1};
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    const double frac =
        net.uplink_counters(LeafId{0}, u).tx_packets.dbl() / n;
    EXPECT_NEAR(frac, 0.25, 0.03);
  }
}

TEST(FatTree, EcmpPinsFlowToOneUplink) {
  Simulator sim{1};
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{2, 4, 1, 1};
  cfg.spray = SprayPolicy::kEcmp;
  FatTree net{sim, cfg};
  net.host(HostId{1}).set_rx_handler([](const Packet&) {});
  for (int i = 0; i < 100; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{1};
    p.flow_id = 0xabc;  // one flow
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  int used = 0;
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    if (net.uplink_counters(LeafId{0}, u).tx_packets > core::Packets{0}) ++used;
  }
  EXPECT_EQ(used, 1);
}

TEST(FatTree, KnownDisconnectExcludedFromSpray) {
  Simulator sim{1};
  FatTreeConfig cfg = small_config();
  FatTree net{sim, cfg};
  net.disconnect_known(LeafId{0}, UplinkIndex{0});  // leaf 0's uplink to spine 0 is down, known
  net.host(HostId{7}).set_rx_handler([](const Packet&) {});
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{7};
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  EXPECT_EQ(net.uplink_counters(LeafId{0}, UplinkIndex{0}).tx_packets, core::Packets{0});
  EXPECT_EQ(net.uplink_counters(LeafId{0}, UplinkIndex{1}).tx_packets, core::Packets{50});
}

TEST(FatTree, DisconnectedDestinationSideAvoided) {
  Simulator sim{1};
  FatTree net{sim, small_config()};
  // Destination leaf 3 lost its link from spine 1 (known): senders must
  // route via spine 0 only.
  net.disconnect_known(LeafId{3}, UplinkIndex{1});
  int got = 0;
  net.host(HostId{7}).set_rx_handler([&](const Packet&) { ++got; });
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{7};
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  EXPECT_EQ(got, 50);
  EXPECT_EQ(net.uplink_counters(LeafId{0}, UplinkIndex{1}).tx_packets, core::Packets{0});
}

TEST(FatTree, FullPartitionCountsNoRouteDrops) {
  Simulator sim{1};
  FatTree net{sim, small_config()};
  net.disconnect_known(LeafId{3}, UplinkIndex{0});
  net.disconnect_known(LeafId{3}, UplinkIndex{1});  // leaf 3 unreachable
  Packet p = make_packet(500);
  p.src = HostId{0};
  p.dst = HostId{7};
  net.host(HostId{0}).nic().enqueue(p);
  sim.run();
  EXPECT_EQ(net.leaf(LeafId{0}).counters().no_route_drops, core::Packets{1});
}

TEST(FatTree, SilentFaultStillSprayedOnto) {
  // A black-holed link that routing does NOT know about keeps receiving
  // its share of traffic — the defining property of a silent fault.
  Simulator sim{1};
  FatTree net{sim, small_config()};
  net.set_uplink_fault(LeafId{0}, UplinkIndex{0}, FaultSpec::black_hole());
  int got = 0;
  net.host(HostId{7}).set_rx_handler([&](const Packet&) { ++got; });
  for (int i = 0; i < 100; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{7};
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  EXPECT_GT(net.uplink_counters(LeafId{0}, UplinkIndex{0}).tx_packets,
            core::Packets{20});  // still used
  EXPECT_EQ(net.uplink_counters(LeafId{0}, UplinkIndex{0}).delivered_packets(), core::Packets{0});
  EXPECT_LT(got, 100);
}

TEST(FatTree, ByteConservationWithDrops) {
  Simulator sim{1};
  FatTree net{sim, small_config()};
  net.set_link_fault(LeafId{0}, UplinkIndex{1}, FaultSpec::random_drop(0.3));
  // A dead (not routed-around) downlink: its drops are the only ones the
  // switch counters can see.
  net.set_downlink_fault(LeafId{3}, UplinkIndex{0}, FaultSpec::disconnect());
  net.host(HostId{6}).set_rx_handler([](const Packet&) {});
  for (int i = 0; i < 500; ++i) {
    Packet p = make_packet(1000);
    p.src = HostId{1};
    p.dst = HostId{6};
    net.host(HostId{1}).nic().enqueue(p);
  }
  sim.run();
  const LinkCounters total = net.total_fabric_counters();
  EXPECT_EQ(total.tx_packets, total.dropped_packets + total.delivered_packets());
  EXPECT_EQ(total.tx_bytes, total.dropped_bytes + total.delivered_bytes());
  EXPECT_GT(total.dropped_packets, core::Packets{0});
  const core::Packets dead = net.downlink_counters(LeafId{3}, UplinkIndex{0}).dropped_packets;
  EXPECT_GT(dead, core::Packets{0});
  EXPECT_EQ(total.telemetry_dropped_packets, dead);
}

TEST(FatTree, ParallelLinksKeepLaneAcrossSpine) {
  Simulator sim{1};
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{2, 2, 1, 2};  // 2 spines × 2 lanes
  FatTree net{sim, cfg};
  int got = 0;
  net.host(HostId{1}).set_rx_handler([&](const Packet&) { ++got; });
  for (int i = 0; i < 400; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{1};
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  EXPECT_EQ(got, 400);
  // Each virtual spine (lane) must carry traffic down to the destination:
  // uplink u at leaf 0 maps to downlink u at leaf 1.
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    EXPECT_EQ(net.uplink_counters(LeafId{0}, u).tx_packets,
              net.downlink_counters(LeafId{1}, u).tx_packets);
    EXPECT_GT(net.downlink_counters(LeafId{1}, u).tx_packets, core::Packets{50});
  }
}

TEST(FatTree, FlowletSticksWithinGapAndMovesAcrossGaps) {
  Simulator sim{1};
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{2, 4, 1, 1};
  cfg.spray = SprayPolicy::kFlowlet;
  FatTree net{sim, cfg};
  net.host(HostId{1}).set_rx_handler([](const Packet&) {});

  // Burst 1: 50 back-to-back packets of one flow → one uplink only.
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{1};
    p.flow_id = 0x77;
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  int used_first = 0;
  std::vector<core::Packets> counts_first;
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    counts_first.push_back(net.uplink_counters(LeafId{0}, u).tx_packets);
    if (counts_first.back() > core::Packets{0}) ++used_first;
  }
  EXPECT_EQ(used_first, 1);

  // After an idle gap longer than the flowlet timeout, the flow may land
  // on a different lane (here all queues are equal so it picks lane 0 —
  // the point is it re-evaluates rather than being permanently pinned).
  sim.schedule_in(sim::Time::microseconds(50), [] {});
  sim.run();
  for (int i = 0; i < 50; ++i) {
    Packet p = make_packet(500);
    p.src = HostId{0};
    p.dst = HostId{1};
    p.flow_id = 0x77;
    net.host(HostId{0}).nic().enqueue(p);
  }
  sim.run();
  int used_total = 0;
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    if (net.uplink_counters(LeafId{0}, u).tx_packets > core::Packets{0}) ++used_total;
  }
  // Still at most 2 lanes ever used: one per flowlet.
  EXPECT_LE(used_total, 2);
}

TEST(FatTree, FlowletDistinctFlowsSpread) {
  Simulator sim{3};
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{2, 4, 1, 1};
  cfg.spray = SprayPolicy::kFlowlet;
  // Host injects 4x faster than one fabric lane drains, so staying on one
  // lane builds queue and new flowlets get steered to emptier lanes.
  cfg.host_link.bandwidth = core::GbitsPerSec{1600.0};
  FatTree net{sim, cfg};
  net.host(HostId{1}).set_rx_handler([](const Packet&) {});
  for (int i = 0; i < 20; ++i) {
    for (int f = 0; f < 16; ++f) {
      Packet p = make_packet(4096);
      p.src = HostId{0};
      p.dst = HostId{1};
      p.flow_id = 0x100 + static_cast<FlowId>(f);
      net.host(HostId{0}).nic().enqueue(p);
    }
  }
  sim.run();
  int used = 0;
  for (const UplinkIndex u : core::ids<UplinkIndex>(4)) {
    if (net.uplink_counters(LeafId{0}, u).tx_packets > core::Packets{0}) ++used;
  }
  EXPECT_GE(used, 3);
}

TEST(PfcSwitch, BackpressurePausesAndResumes) {
  // Saturate one leaf→host link from two senders long enough to cross the
  // XOFF threshold; PFC must bound the leaf's ingress buffers and no packet
  // may be lost (lossless fabric).
  Simulator sim{1};
  FatTreeConfig cfg = small_config();
  cfg.pfc.xoff_bytes = core::Bytes{16 * 1024};
  cfg.pfc.xon_bytes = core::Bytes{8 * 1024};
  FatTree net{sim, cfg};
  int got = 0;
  net.host(HostId{6}).set_rx_handler([&](const Packet&) { ++got; });
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    for (HostId src : {HostId{0}, HostId{2}}) {  // two different leaves
      Packet p = make_packet(4096 + 64);
      p.src = src;
      p.dst = HostId{6};
      net.host(src).nic().enqueue(p);
    }
  }
  sim.run();
  EXPECT_EQ(got, 2 * n);  // lossless: everything arrives eventually
  const LinkCounters total = net.total_fabric_counters();
  EXPECT_EQ(total.dropped_packets, core::Packets{0});
}

}  // namespace
}  // namespace flowpulse::net
