// core:: type-safety layer: StrongId semantics (ordering, formatting,
// map keys, iteration), quantity arithmetic (Bytes/Packets/GbitsPerSec),
// LinkId packing, the Ring FIFO, and the golden bit-identity proof that
// the strong-type conversion changed no observable output.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>

#include "core/ring.h"
#include "core/strong_id.h"
#include "core/units.h"
#include "golden_scenario.h"
#include "net/types.h"

namespace flowpulse::core {
namespace {

// ---------------------------------------------------------------------------
// StrongId
// ---------------------------------------------------------------------------

TEST(StrongId, DistinctTagsNeverConvert) {
  // The whole point: a LeafId is not a PortId is not a HostId, even though
  // all three wrap uint32_t.
  static_assert(!std::is_convertible_v<net::LeafId, net::PortId>);
  static_assert(!std::is_convertible_v<net::HostId, net::LeafId>);
  static_assert(!std::is_convertible_v<net::UplinkIndex, net::SpineId>);
  static_assert(!std::is_convertible_v<std::uint32_t, net::LeafId>);
  static_assert(!std::is_convertible_v<net::LeafId, std::uint32_t>);
  static_assert(!std::is_constructible_v<net::PortId, net::LeafId>);
}

TEST(StrongId, ExplicitConstructionAndValue) {
  constexpr net::LeafId l{7};
  static_assert(l.v() == 7u);
  EXPECT_EQ(net::LeafId{}.v(), 0u);
}

TEST(StrongId, OrderingAndEquality) {
  EXPECT_EQ(net::HostId{3}, net::HostId{3});
  EXPECT_NE(net::HostId{3}, net::HostId{4});
  EXPECT_LT(net::HostId{3}, net::HostId{4});
  EXPECT_GE(net::HostId{4}, net::HostId{4});
}

TEST(StrongId, IncrementDecrement) {
  net::IterIndex i{5};
  EXPECT_EQ((++i).v(), 6u);
  EXPECT_EQ((--i).v(), 5u);
}

TEST(StrongId, StreamsBareValue) {
  // Formatting must match the pre-conversion integer output exactly — the
  // golden hash below depends on it.
  std::ostringstream os;
  os << net::LeafId{12} << ' ' << net::UplinkIndex{0};
  EXPECT_EQ(os.str(), "12 0");
}

TEST(StrongId, UsableAsOrderedMapKey) {
  // Ordered containers only: the determinism lint bans unordered_*, so
  // StrongId deliberately provides operator<=> and no std::hash.
  std::map<net::LinkId, int> quarantined;
  quarantined[net::LinkId::of(net::LeafId{2}, net::UplinkIndex{1})] = 1;
  quarantined[net::LinkId::of(net::LeafId{1}, net::UplinkIndex{3})] = 2;
  EXPECT_EQ(quarantined.begin()->second, 2);  // leaf 1 sorts before leaf 2

  std::set<net::LeafId> leaves{net::LeafId{4}, net::LeafId{1}, net::LeafId{4}};
  EXPECT_EQ(leaves.size(), 2u);
}

TEST(StrongId, IdsRangeIsHalfOpen) {
  std::vector<net::HostId> seen;
  for (const net::HostId h : ids<net::HostId>(3)) seen.push_back(h);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.front(), net::HostId{0});
  EXPECT_EQ(seen.back(), net::HostId{2});
  for (const net::LeafId l : ids<net::LeafId>(0)) {
    FAIL() << "empty range must not iterate, got " << l;
  }
}

TEST(LinkId, PacksAndUnpacksLeafThenUplink) {
  const net::LinkId link = net::LinkId::of(net::LeafId{12}, net::UplinkIndex{5});
  EXPECT_EQ(link.leaf(), net::LeafId{12});
  EXPECT_EQ(link.uplink(), net::UplinkIndex{5});
  // Orders by leaf first, then uplink — quarantine listings stay sorted the
  // way operators read them.
  EXPECT_LT(net::LinkId::of(net::LeafId{1}, net::UplinkIndex{9}),
            net::LinkId::of(net::LeafId{2}, net::UplinkIndex{0}));
  EXPECT_LT(net::LinkId::of(net::LeafId{2}, net::UplinkIndex{0}),
            net::LinkId::of(net::LeafId{2}, net::UplinkIndex{1}));
}

// ---------------------------------------------------------------------------
// Quantities
// ---------------------------------------------------------------------------

TEST(Bytes, Arithmetic) {
  constexpr Bytes a{4096};
  constexpr Bytes b{64};
  static_assert((a + b).v() == 4160u);
  static_assert((a - b).v() == 4032u);
  static_assert((a * 3).v() == 3u * 4096u);
  static_assert((3 * b).v() == 192u);
  static_assert(a / b == 64u);  // pure ratio, not Bytes
  static_assert(a % b == 0u);
  Bytes acc{100};
  acc += Bytes{20};
  acc -= Bytes{10};
  EXPECT_EQ(acc, Bytes{110});
  EXPECT_DOUBLE_EQ(Bytes{5}.dbl(), 5.0);
}

TEST(Bytes, NotInterconvertibleWithPackets) {
  static_assert(!std::is_convertible_v<Bytes, Packets>);
  static_assert(!std::is_convertible_v<Packets, Bytes>);
  static_assert(!std::is_constructible_v<Bytes, Packets>);
}

TEST(Packets, CountsAndCompares) {
  Packets p{10};
  ++p;
  EXPECT_EQ(p, Packets{11});
  EXPECT_EQ(p - Packets{1}, Packets{10});
  EXPECT_GT(Packets{2}, Packets{1});
}

TEST(GbitsPerSec, RateTimeAlgebra) {
  // 1 Gbit/s == 1 bit/ns: 4096 B over 81.92 ns is 400 Gbit/s.
  constexpr Bytes payload{4096};
  const GbitsPerSec rate = payload / sim::Time::picoseconds(81'920);
  EXPECT_DOUBLE_EQ(rate.v(), 400.0);
  // Round trip: the volume a 400 Gbit/s link moves in that time.
  EXPECT_EQ(GbitsPerSec{400.0} * sim::Time::picoseconds(81'920), payload);
  // And the strong-typed serialization_time matches the raw detail math.
  EXPECT_EQ(serialization_time(payload, GbitsPerSec{400.0}),
            sim::detail::serialization_time(4096, 400.0));
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, WrapsAroundWithoutGrowing) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);  // nothing allocated before the first push
  int next_in = 0;
  int next_out = 0;
  // Keep one slot short of full while cycling 100 elements through: the
  // head and tail wrap many times and the first allocation suffices.
  const std::size_t live = Ring<int>::kInitialCapacity - 1;
  for (; next_in < static_cast<int>(live); ++next_in) r.push_back(next_in);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.front(), next_out);
    EXPECT_EQ(r.pop_front(), next_out++);
    r.push_back(next_in++);
    EXPECT_EQ(r.back(), next_in - 1);
    ASSERT_EQ(r.size(), live);
    for (std::size_t k = 0; k < r.size(); ++k) EXPECT_EQ(r[k], next_out + static_cast<int>(k));
  }
  EXPECT_EQ(r.capacity(), Ring<int>::kInitialCapacity);
  while (!r.empty()) EXPECT_EQ(r.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(Ring, GrowsWhileWrappedAndKeepsOrder) {
  Ring<int> r;
  const int cap = static_cast<int>(Ring<int>::kInitialCapacity);
  for (int i = 0; i < cap; ++i) r.push_back(i);
  for (int i = 0; i < cap / 2; ++i) EXPECT_EQ(r.pop_front(), i);
  // Refill to capacity: the live range now wraps past the buffer's end.
  for (int i = cap; i < cap + cap / 2; ++i) r.push_back(i);
  ASSERT_EQ(r.size(), r.capacity());
  // The next push grows from a wrapped layout; 3.5× the first capacity
  // plus one element grows it twice.
  for (int i = cap + cap / 2; i < 4 * cap + 1; ++i) r.push_back(i);
  EXPECT_EQ(r.capacity(), 4 * Ring<int>::kInitialCapacity);
  EXPECT_EQ(r.front(), cap / 2);
  EXPECT_EQ(r.back(), 4 * cap);
  for (int i = cap / 2; i <= 4 * cap; ++i) EXPECT_EQ(r.pop_front(), i);
  EXPECT_TRUE(r.empty());
}

TEST(Ring, HoldsMoveOnlyElements) {
  Ring<std::unique_ptr<int>> r;
  for (int i = 0; i < 20; ++i) {
    r.push_back(std::make_unique<int>(i));
    if (i % 3 == 2) {
      EXPECT_EQ(*r.pop_front(), i / 3);  // interleave pops so growth sees a wrap
    }
  }
  int expect = 20 / 3;
  while (!r.empty()) {
    const std::unique_ptr<int> p = r.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, expect++);
  }
  EXPECT_EQ(expect, 20);
}

// ---------------------------------------------------------------------------
// Golden bit-identity: the conversion's behavior-preservation proof
// ---------------------------------------------------------------------------

TEST(GoldenScenario, ReportBitIdenticalToPreConversionTree) {
  // FNV-1a over every exporter's output for a fixed-seed mitigated run.
  // 8206003594010070324 was recorded on the last all-integer-ID commit; it
  // moved to 18106918244164645694 when reports adopted canonical
  // (iteration, leaf) detection order for the sharded-event-lane engine —
  // an intentional, content-preserving reorder (CHANGES.md PR 9: the same
  // detections, sorted; per-iteration stats unchanged). A mismatch against
  // the new pin means observable behavior changed.
  EXPECT_EQ(testing::golden_report_hash(), 18106918244164645694ull);
}

TEST(GoldenScenario, ParallelLaneReportBitIdentical) {
  // parallel == 2 pins the multi-lane paths the parallel==1 golden cannot
  // reach (uplink→lane math, lane-indexed PortLoadMap, spine_of alarm
  // names). Recorded post-conversion because the alarm-name fix for
  // parallel > 1 was an intentional behavior change (CHANGES.md PR 5);
  // re-pinned from 13062378741350390824 for the canonical (iteration,
  // leaf) report order (CHANGES.md PR 9, same reorder as above).
  EXPECT_EQ(testing::golden_parallel_report_hash(), 904324871756836400ull);

  // The pin is only meaningful if the lane-1 fault was actually detected —
  // an empty report would hash stably too.
  exp::Scenario scenario{testing::golden_parallel_scenario_config()};
  const exp::ScenarioResult result = scenario.run();
  EXPECT_FALSE(result.detections.empty());
}

// The goldens above send one message per rank per stage. These three pin
// the schedules where a rank's sends within a stage, or a host's message
// ids, could be reordered without either of those hashes noticing. They
// were recorded before the runner grouped sends per rank and before the
// transport dropped per-message history; a pure speed change keeps them.

TEST(GoldenScenario, AllToAllReportBitIdentical) {
  // One stage in which every rank sends ranks−1 messages in rotated order.
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.collective = collective::CollectiveKind::kAllToAll;
  cfg.iterations = 4;
  EXPECT_EQ(testing::report_hash(cfg), 12069841261965182043ull);
}

TEST(GoldenScenario, HierarchicalRingReportBitIdentical) {
  // Four hosts per leaf: members reduce onto their leader (several senders,
  // one receiver), and members send nothing during the leaders' ring.
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.fabric.shape.leaves = 4;
  cfg.fabric.shape.hosts_per_leaf = 4;
  cfg.collective = collective::CollectiveKind::kHierarchicalRing;
  // Each member's whole message fits under the leaf's PFC XOFF, so no pause
  // is sent: audit builds arm a watchdog event per pause, which would give
  // them a report of their own.
  cfg.collective_bytes = core::Bytes{96u << 10};
  cfg.iterations = 4;
  cfg.preexisting.clear();
  cfg.new_faults.front().leaf = net::LeafId{1};
  cfg.mitigation.enabled = false;
  EXPECT_EQ(testing::report_hash(cfg), 6139614249852298571ull);
}

TEST(GoldenScenario, BackgroundJobReportBitIdentical) {
  // A second, untagged job on the same hosts: both runners draw message ids
  // from one transport per host, so each host's ids interleave across jobs.
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.background.bytes = core::Bytes{1u << 20};
  cfg.iterations = 4;
  EXPECT_EQ(testing::report_hash(cfg), 3689855474661873578ull);
}

}  // namespace
}  // namespace flowpulse::core
