// Tests for the runtime invariant auditor (src/sim/audit.h).
//
// Each negative test deliberately breaks one invariant — drops a byte from
// a link ledger, releases a packet slot twice, schedules an event into the
// past, stages a cross-lane import behind the last event run, wedges a PFC
// pause, double-delivers a message, invents monitored bytes — and asserts
// that the corresponding check fires with the right structured diagnostic.
// A final end-to-end scenario proves the clean path stays quiet. The whole
// file self-skips in non-audit builds, where FP_AUDIT compiles to nothing.
#include <gtest/gtest.h>

#include <cstdint>

#include "exp/scenario.h"
#include "flowpulse/system.h"
#include "flowpulse/three_level_system.h"
#include "net/fat_tree.h"
#include "net/three_level.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "core/strong_id.h"
#include "core/units.h"
#include "net/types.h"
#include "sim/audit.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/transport_layer.h"

namespace flowpulse {
namespace {

using sim::Simulator;
using sim::Time;
namespace audit = sim::audit;

#if FP_AUDIT_ENABLED

/// Handler installed by every negative test: convert the violation into an
/// exception the test can catch and inspect instead of dying.
[[noreturn]] void throw_violation(const audit::Violation& v) {
  throw audit::ViolationError{audit::Violation{v}};
}

net::FatTreeConfig small_fabric() {
  net::FatTreeConfig cfg;
  cfg.shape = net::TopologyInfo{2, 2, 2, 1};  // 2 leaves × 2 spines, 2 hosts/leaf
  return cfg;
}

net::Packet tagged_packet(std::uint32_t size, std::uint32_t iteration,
                          std::uint16_t job = 0) {
  net::Packet p;
  p.size_bytes = core::Bytes{size};
  p.kind = net::PacketKind::kData;
  p.priority = net::Priority::kCollective;
  p.flow_id = net::flowid::make_collective(net::IterIndex{iteration}, job);
  return p;
}

TEST(Audit, ConservationHoldsOnCleanTraffic) {
  Simulator sim{1};
  net::FatTree net{sim, small_fabric()};
  net::Packet p;
  p.size_bytes = core::Bytes{1000};
  p.src = net::HostId{0};
  p.dst = net::HostId{3};  // crosses a spine: exercises every port class on the path
  net.host(net::HostId{0}).nic().enqueue(p);
  sim.run();  // quiesce checks run automatically; a violation would abort
  SUCCEED();
}

TEST(Audit, DroppedByteFromLinkLedgerFires) {
  Simulator sim{1};
  net::FatTree net{sim, small_fabric()};
  net::Packet p;
  p.size_bytes = core::Bytes{1000};
  p.src = net::HostId{0};
  p.dst = net::HostId{1};
  net.host(net::HostId{0}).nic().enqueue(p);
  sim.run();

  // Lose one delivered byte from the ledger of the egress port that served
  // host 1, then drive the simulation back to quiesce: the automatic
  // conservation check must now find serialized != dropped + delivered.
  net.leaf(net::LeafId{0}).host_port(1).audit_tamper_delivered_bytes(-1);
  const audit::ScopedHandler guard{&throw_violation};
  net.host(net::HostId{0}).nic().enqueue(p);
  try {
    sim.run();
    FAIL() << "byte-conservation violation did not fire at quiesce";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "link-conservation");
    EXPECT_NE(e.violation().entity.find("leaf0"), std::string::npos) << e.what();
  }
}

TEST(Audit, ReleasedPacketSlotFires) {
  // A stale handle is the bug class ASan cannot see inside a pool: the slot
  // is still valid memory, it just no longer holds this packet.
  net::PacketPool pool;
  const net::PacketRef ref = pool.put(tagged_packet(1000, 0));
  pool.release(ref);
  const audit::ScopedHandler guard{&throw_violation};
  try {
    pool.release(ref);
    FAIL() << "packet-pool violation did not fire on a double release";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "packet-pool");
    EXPECT_EQ(e.violation().iteration, ref.v()) << e.what();
  }
}

TEST(Audit, EventScheduledIntoThePastFires) {
  Simulator sim{1};
  bool past_event_ran = false;
  sim.schedule_at(Time::nanoseconds(100), [&] {
    // Now at t=100ns; scheduling behind the clock must trip monotonicity.
    sim.schedule_at(Time::nanoseconds(50), [&] { past_event_ran = true; });
  });
  const audit::ScopedHandler guard{&throw_violation};
  try {
    sim.run();
    FAIL() << "event-monotonicity violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "event-monotonicity");
    EXPECT_EQ(e.violation().sim_time_ps, Time::nanoseconds(100).ps());
  }
  EXPECT_FALSE(past_event_ran);
}

TEST(Audit, ImportBehindLastPoppedEventFiresEventOrder) {
  // Lane b runs an event at 100 ns that was scheduled at 50 ns. Then lane a
  // posts to b a message due at 100 ns but scheduled at 10 ns: its fire
  // time is not behind b's clock, so event-monotonicity passes, yet its key
  // sorts before the event b already ran.
  Simulator a{1};
  Simulator b{2};
  a.configure_lane(0, 2);
  b.configure_lane(1, 2);
  b.schedule_at(Time::nanoseconds(50), [&b] { b.schedule_in(Time::nanoseconds(50), [] {}); });
  b.run_until(Time::nanoseconds(100));
  ASSERT_EQ(b.events_executed(), 2u);
  bool import_ran = false;
  a.schedule_at(Time::nanoseconds(10), [&a, &b, &import_ran] {
    a.post_remote(b, Time::nanoseconds(90), sim::LaneFn{[&import_ran] { import_ran = true; }});
  });
  a.run();
  b.stage_inbox();
  const audit::ScopedHandler guard{&throw_violation};
  try {
    b.run();
    FAIL() << "event-order violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "event-order");
    EXPECT_EQ(e.violation().sim_time_ps, Time::nanoseconds(100).ps());
  }
  EXPECT_FALSE(import_ran);
}

TEST(Audit, StuckPfcPauseFires) {
  // Wedge a host-facing egress port, then flood its leaf until the ingress
  // class crosses XOFF: the switch pauses the sender and — since the
  // wedged port never drains — can never resume it. The watchdog must
  // flag the pause once it has been held past kPfcStuckPauseTimeout.
  net::FatTreeConfig cfg = small_fabric();
  cfg.pfc.xoff_bytes = core::Bytes{4096};
  cfg.pfc.xon_bytes = core::Bytes{2048};
  Simulator sim{1};
  net::FatTree net{sim, cfg};
  net.leaf(net::LeafId{0}).host_port(1).set_paused(net::Priority::kCollective, true);
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.size_bytes = core::Bytes{1000};
    p.src = net::HostId{0};
    p.dst = net::HostId{1};
    net.host(net::HostId{0}).nic().enqueue(p);
  }
  const audit::ScopedHandler guard{&throw_violation};
  try {
    sim.run();
    FAIL() << "pfc-stuck-pause violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "pfc-stuck-pause");
    EXPECT_NE(e.violation().entity.find("leaf0"), std::string::npos) << e.what();
    EXPECT_GE(e.violation().sim_time_ps, net::kPfcStuckPauseTimeout.ps());
  }
}

TEST(Audit, DoubleDeliveredMessageFires) {
  Simulator sim{1};
  net::FatTree net{sim, small_fabric()};
  transport::TransportLayer transports{sim, net};
  transport::MessageSpec spec;
  spec.dst = net::HostId{1};
  spec.bytes = core::Bytes{64 * 1024};
  spec.flow_id = net::flowid::make_collective(net::IterIndex{0});
  const std::uint64_t msg_id = transports.at(net::HostId{0}).send_message(spec);
  sim.run();

  // Re-fire the completion handlers of the already-delivered message, as a
  // buggy retransmission path would: exactly-once must catch delivery #2.
  const audit::ScopedHandler guard{&throw_violation};
  try {
    transports.at(net::HostId{1}).audit_redeliver(net::HostId{0}, msg_id);
    FAIL() << "message-exactly-once violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "message-exactly-once");
    EXPECT_EQ(e.violation().iteration, msg_id);
    EXPECT_NE(e.violation().entity.find("host1"), std::string::npos) << e.what();
  }
}

TEST(Audit, PhantomMonitoredBytesFireReconciliation) {
  Simulator sim{1};
  net::FatTree net{sim, small_fabric()};
  fp::FlowPulseSystem system{fp::Tier::leaves_of(net.info()), fp::SystemConfig{}};
  for (const net::LeafId l : core::ids<net::LeafId>(net.info().leaves)) {
    system.attach(l, net.leaf(l));
  }

  // The monitor claims bytes the fabric never delivered: feed a tagged
  // packet straight into the leaf-0 monitor, bypassing the switch.
  system.monitor(net::LeafId{0}).record(net::UplinkIndex{0},
                                        tagged_packet(1000, /*iteration=*/0));

  const audit::ScopedHandler guard{&throw_violation};
  try {
    system.flush();
    FAIL() << "monitor-reconciliation violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "monitor-reconciliation");
    EXPECT_EQ(e.violation().entity, "leaf0.up0");
  }
}

TEST(Audit, PhantomPodSpineBytesFireReconciliation) {
  Simulator sim{1};
  net::ThreeLevelConfig cfg;
  cfg.shape = net::ThreeLevelInfo{2, 2, 2, 1};
  net::ThreeLevelFatTree net{sim, cfg};
  fp::ThreeLevelFlowPulse fp{net};

  // Pod-spine 1 of pod 1 (row 3 of the spine tier) claims bytes that core 1
  // of its group never delivered.
  fp.spine_tier().monitor(net::LeafId{3}).record(net::UplinkIndex{1},
                                                 tagged_packet(1000, /*iteration=*/0));

  const audit::ScopedHandler guard{&throw_violation};
  try {
    fp.flush();
    FAIL() << "monitor-reconciliation violation did not fire";
  } catch (const audit::ViolationError& e) {
    EXPECT_EQ(e.violation().invariant, "monitor-reconciliation");
    EXPECT_EQ(e.violation().entity, "podspine1_1.up1");
  }
}

TEST(Audit, EndToEndScenarioRunsClean) {
  // Full stack under every audit at once — fabric conservation, transport
  // exactly-once, PFC liveness, monitor reconciliation. No handler is
  // installed, so any violation aborts the test binary.
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{4, 2, 2, 1};
  cfg.collective_bytes = core::Bytes{1u << 20};
  cfg.iterations = 3;
  exp::Scenario scenario{cfg};
  const exp::ScenarioResult r = scenario.run();
  EXPECT_EQ(r.iterations_completed, 3u);
  EXPECT_TRUE(r.data_valid);
}

#else  // !FP_AUDIT_ENABLED

TEST(Audit, DisabledInThisBuild) {
  GTEST_SKIP() << "configure with -DFLOWPULSE_AUDIT=ON to compile the "
                  "runtime invariant auditor (tests/run_sanitized.sh audit)";
}

#endif

}  // namespace
}  // namespace flowpulse
