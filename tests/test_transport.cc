// Transport tests: reliable delivery, reordering tolerance, RTO recovery
// under injected loss, windowing, and multi-message behavior.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/strong_id.h"
#include "net/fat_tree.h"
#include "sim/simulator.h"
#include "transport/transport_layer.h"

namespace flowpulse::transport {
namespace {

using net::FatTree;
using net::FatTreeConfig;
using net::TopologyInfo;
using sim::Simulator;
using sim::Time;

struct Rig {
  explicit Rig(FatTreeConfig cfg = {}, TransportConfig tcfg = {}, std::uint64_t seed = 1)
      : sim{seed}, net{sim, cfg}, transports{sim, net, tcfg} {}
  Simulator sim;
  FatTree net;
  TransportLayer transports;
};

FatTreeConfig tiny() {
  FatTreeConfig cfg;
  cfg.shape = TopologyInfo{4, 2, 1, 1};
  return cfg;
}

TEST(Transport, DeliversSingleSegmentMessage) {
  Rig rig{tiny()};
  std::vector<RecvInfo> got;
  rig.transports.at(net::HostId{3}).add_recv_handler([&](const RecvInfo& i) { got.push_back(i); });
  bool acked = false;
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{3}, core::Bytes{1000}, 0x1, net::Priority::kCollective},
                                    [&](std::uint64_t) { acked = true; });
  rig.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, net::HostId{0});
  EXPECT_EQ(got[0].bytes, core::Bytes{1000});
  EXPECT_EQ(got[0].flow_id, 0x1u);
  EXPECT_TRUE(acked);
}

TEST(Transport, DeliversMultiSegmentMessage) {
  Rig rig{tiny()};
  std::vector<RecvInfo> got;
  rig.transports.at(net::HostId{1}).add_recv_handler([&](const RecvInfo& i) { got.push_back(i); });
  const std::uint64_t bytes = 1 << 20;  // 256 segments at 4 KiB
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{bytes}, 0x2, net::Priority::kCollective});
  rig.sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].bytes, core::Bytes{bytes});
  const TransportStats& st = rig.transports.at(net::HostId{0}).stats();
  EXPECT_EQ(st.data_packets_sent, 256u);
  EXPECT_EQ(st.retx_packets_sent, 0u);  // lossless fabric: no RTO fires
}

TEST(Transport, SegmentationRoundsUp) {
  Rig rig{tiny()};
  int done = 0;
  rig.transports.at(net::HostId{1}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{4097}, 0x3, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(rig.transports.at(net::HostId{0}).stats().data_packets_sent, 2u);
}

TEST(Transport, RecoversFromRandomDrops) {
  Rig rig{tiny()};
  // 20% silent loss on one uplink: spraying hits it half the time.
  rig.net.set_link_fault(net::LeafId{0}, net::UplinkIndex{0}, net::FaultSpec::random_drop(0.2));
  int done = 0;
  rig.transports.at(net::HostId{2}).add_recv_handler([&](const RecvInfo&) { ++done; });
  bool acked = false;
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{2}, core::Bytes{512 * 1024}, 0x4, net::Priority::kCollective},
                                    [&](std::uint64_t) { acked = true; });
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(acked);
  EXPECT_GT(rig.transports.at(net::HostId{0}).stats().retx_packets_sent, 0u);
}

TEST(Transport, RecoversFromBlackHoleOnOnePath) {
  Rig rig{tiny()};
  rig.net.set_link_fault(net::LeafId{0}, net::UplinkIndex{1}, net::FaultSpec::black_hole());
  int done = 0;
  rig.transports.at(net::HostId{2}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{2}, core::Bytes{256 * 1024}, 0x5, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);  // every segment eventually re-sprayed onto spine 0
}

TEST(Transport, WindowBoundsOutstandingSegments) {
  TransportConfig tcfg;
  tcfg.window = 4;
  Rig rig{tiny(), tcfg};
  int done = 0;
  rig.transports.at(net::HostId{1}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{64 * 1024}, 0x6, net::Priority::kCollective});
  // Before any ACK returns, at most `window` segments may be queued at the
  // NIC (the first is already serializing).
  EXPECT_LE(rig.net.host(net::HostId{0}).nic().queued_packets(), 4u);
  rig.sim.run();
  EXPECT_EQ(done, 1);
}

TEST(Transport, ManyConcurrentMessagesBetweenManyPairs) {
  Rig rig{tiny()};
  int done = 0;
  for (const net::HostId h : core::ids<net::HostId>(4)) {
    rig.transports.at(h).add_recv_handler([&](const RecvInfo&) { ++done; });
  }
  int expected = 0;
  for (const net::HostId src : core::ids<net::HostId>(4)) {
    for (const net::HostId dst : core::ids<net::HostId>(4)) {
      if (src == dst) continue;
      rig.transports.at(src).send_message(
          MessageSpec{dst, core::Bytes{32 * 1024}, 0x10 + src.v(), net::Priority::kCollective});
      ++expected;
    }
  }
  rig.sim.run();
  EXPECT_EQ(done, expected);
}

TEST(Transport, DuplicateDeliveredOnceDespiteRetransmits) {
  // Force spurious retransmissions with an artificially small fixed RTO;
  // the receiver must still deliver the message exactly once.
  TransportConfig tcfg;
  tcfg.rto = Time::nanoseconds(500);  // below fabric RTT → spurious retx
  tcfg.adaptive_rto = false;
  Rig rig{tiny(), tcfg};
  int done = 0;
  rig.transports.at(net::HostId{2}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{2}, core::Bytes{128 * 1024}, 0x7, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_GT(rig.transports.at(net::HostId{0}).stats().retx_packets_sent, 0u);
  EXPECT_GT(rig.transports.at(net::HostId{2}).stats().duplicate_data_received, 0u);
}

TEST(Transport, ExactlyOnceAcrossInterleavedSourcesAndLateDuplicates) {
  // Two sources alternate between two destinations, so each receiver sees
  // every other message id of a source. A fixed RTO below the fabric RTT
  // plus ACK loss on the sources' downlinks makes retransmits arrive after
  // their message completed; single-segment messages complete on their
  // first segment, so every duplicate of one is such a late arrival.
  TransportConfig tcfg;
  tcfg.rto = Time::nanoseconds(500);
  tcfg.adaptive_rto = false;
  Rig rig{tiny(), tcfg, 7};
  for (const net::LeafId leaf : {net::LeafId{0}, net::LeafId{1}}) {
    for (const net::UplinkIndex u : {net::UplinkIndex{0}, net::UplinkIndex{1}}) {
      rig.net.set_downlink_fault(leaf, u, net::FaultSpec::random_drop(0.3));
    }
  }
  const std::vector<net::HostId> srcs{net::HostId{0}, net::HostId{1}};
  const std::vector<net::HostId> dsts{net::HostId{2}, net::HostId{3}};
  std::map<std::pair<net::HostId, std::uint64_t>, int> delivered;
  for (const net::HostId d : dsts) {
    rig.transports.at(d).add_recv_handler([&delivered, d](const RecvInfo& i) {
      EXPECT_EQ(i.dst, d);
      ++delivered[{i.src, i.msg_id}];
    });
  }
  constexpr int kPerSource = 24;
  int completed = 0;
  for (const net::HostId s : srcs) {
    for (int m = 0; m < kPerSource; ++m) {
      const core::Bytes bytes{m % 3 == 0 ? 16u * 1024 : 1000u};
      rig.transports.at(s).send_message(
          MessageSpec{dsts[m % dsts.size()], bytes, 0x20, net::Priority::kCollective},
          [&completed](std::uint64_t) { ++completed; });
    }
  }
  rig.sim.run();

  const std::size_t sent = srcs.size() * kPerSource;
  EXPECT_EQ(completed, static_cast<int>(sent));
  ASSERT_EQ(delivered.size(), sent);
  for (const auto& [key, count] : delivered) {
    EXPECT_EQ(count, 1) << "host" << key.first << " message " << key.second;
  }
  const TransportStats total = rig.transports.total_stats();
  EXPECT_EQ(total.messages_sent, sent);
  EXPECT_EQ(total.messages_received, total.messages_sent);
  EXPECT_GT(total.duplicate_data_received, 0u);
}

TEST(Transport, StatsConsistent) {
  Rig rig{tiny()};
  rig.transports.at(net::HostId{1}).add_recv_handler([](const RecvInfo&) {});
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{100000}, 0x8, net::Priority::kCollective});
  rig.sim.run();
  const TransportStats total = rig.transports.total_stats();
  EXPECT_EQ(total.messages_sent, 1u);
  EXPECT_EQ(total.messages_received, 1u);
  // Receiver acked every arriving data packet.
  EXPECT_EQ(total.acks_sent, total.data_packets_sent + total.retx_packets_sent -
                                 0u /* lossless: all arrive */);
}

TEST(Transport, CompletionUnderHeavyLossOnAllPaths) {
  // Both uplinks of the source leaf drop 30%: progress is slow but certain.
  Rig rig{tiny()};
  rig.net.set_uplink_fault(net::LeafId{0}, net::UplinkIndex{0}, net::FaultSpec::random_drop(0.3));
  rig.net.set_uplink_fault(net::LeafId{0}, net::UplinkIndex{1}, net::FaultSpec::random_drop(0.3));
  int done = 0;
  rig.transports.at(net::HostId{3}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{3}, core::Bytes{64 * 1024}, 0x9, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
}

TEST(Transport, AckLossTriggersRetransmitButNoDoubleDelivery) {
  // Drops on the *reverse* direction (downlink toward the sender's leaf)
  // kill ACKs; sender retransmits, receiver dedups.
  Rig rig{tiny()};
  rig.net.set_downlink_fault(net::LeafId{0}, net::UplinkIndex{0}, net::FaultSpec::random_drop(0.5));
  rig.net.set_downlink_fault(net::LeafId{0}, net::UplinkIndex{1}, net::FaultSpec::random_drop(0.5));
  int done = 0;
  rig.transports.at(net::HostId{1}).add_recv_handler([&](const RecvInfo&) { ++done; });
  bool acked = false;
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{64 * 1024}, 0xa, net::Priority::kCollective},
                                    [&](std::uint64_t) { acked = true; });
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(acked);
  EXPECT_GT(rig.transports.at(net::HostId{1}).stats().duplicate_data_received, 0u);
}

TEST(Transport, SackBitmapCoversLostAcks) {
  // Drop 30% of everything on the reverse path (ACKs included). With
  // per-packet ACKs alone, each lost ACK would force a duplicate data
  // retransmission; the SACK bitmap carried by later ACKs covers the holes,
  // so duplicates stay far below the ACK loss count.
  Rig rig{tiny()};
  rig.net.set_downlink_fault(net::LeafId{0}, net::UplinkIndex{0}, net::FaultSpec::random_drop(0.3));
  rig.net.set_downlink_fault(net::LeafId{0}, net::UplinkIndex{1}, net::FaultSpec::random_drop(0.3));
  int done = 0;
  rig.transports.at(net::HostId{1}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{1 << 20}, 0xc, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
  const auto& stats = rig.transports.at(net::HostId{1}).stats();
  // 256 data segments, ~30% of 256 ACKs lost ≈ 77; without SACK we would
  // see roughly that many duplicates. With SACK only trailing-edge losses
  // (the last segments of the window, with no later ACK to cover them)
  // cause retransmits.
  EXPECT_LT(stats.duplicate_data_received, 20u);
}

TEST(Transport, RttEstimatorConvergesAndBoundsRto) {
  Rig rig{tiny()};
  int done = 0;
  rig.transports.at(net::HostId{3}).add_recv_handler([&](const RecvInfo&) { ++done; });
  EXPECT_EQ(rig.transports.at(net::HostId{0}).srtt(), Time::zero());
  // Before any sample: conservative initial RTO.
  EXPECT_EQ(rig.transports.at(net::HostId{0}).effective_rto(),
            rig.transports.at(net::HostId{0}).config().rto * Transport::kInitialRtoMultiplier);
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{3}, core::Bytes{256 * 1024}, 0xd, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
  const Time srtt = rig.transports.at(net::HostId{0}).srtt();
  // Fabric RTT here is a few microseconds; the estimate must be sane.
  EXPECT_GT(srtt, Time::nanoseconds(500));
  EXPECT_LT(srtt, Time::microseconds(50));
  // Effective RTO respects the configured floor.
  EXPECT_GE(rig.transports.at(net::HostId{0}).effective_rto(), rig.transports.at(net::HostId{0}).config().rto);
}

TEST(Transport, FixedRtoModeIgnoresRttSamples) {
  TransportConfig tcfg;
  tcfg.adaptive_rto = false;
  tcfg.rto = Time::microseconds(7);
  Rig rig{tiny(), tcfg};
  rig.transports.at(net::HostId{1}).add_recv_handler([](const RecvInfo&) {});
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{1}, core::Bytes{64 * 1024}, 0xe, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(rig.transports.at(net::HostId{0}).effective_rto(), Time::microseconds(7));
}

TEST(Transport, GilbertElliottBurstLossRecovered) {
  Rig rig{tiny()};
  rig.net.set_link_fault(net::LeafId{0}, net::UplinkIndex{0}, net::FaultSpec::gilbert_elliott(0.10, 30.0));
  int done = 0;
  rig.transports.at(net::HostId{2}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{0}).send_message(MessageSpec{net::HostId{2}, core::Bytes{512 * 1024}, 0xf, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_GT(rig.transports.at(net::HostId{0}).stats().retx_packets_sent, 0u);
}

class TransportDropRateTest : public ::testing::TestWithParam<double> {};

TEST_P(TransportDropRateTest, AlwaysCompletes) {
  const double rate = GetParam();
  Rig rig{tiny(), {}, static_cast<std::uint64_t>(rate * 1000) + 3};
  rig.net.set_link_fault(net::LeafId{1}, net::UplinkIndex{0}, net::FaultSpec::random_drop(rate));
  int done = 0;
  rig.transports.at(net::HostId{0}).add_recv_handler([&](const RecvInfo&) { ++done; });
  rig.transports.at(net::HostId{1}).send_message(MessageSpec{net::HostId{0}, core::Bytes{128 * 1024}, 0xb, net::Priority::kCollective});
  rig.sim.run();
  EXPECT_EQ(done, 1) << "drop rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(DropSweep, TransportDropRateTest,
                         ::testing::Values(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9));

}  // namespace
}  // namespace flowpulse::transport
