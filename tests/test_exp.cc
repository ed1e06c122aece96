// Experiment-harness utilities: table printer, env knobs, trial runner,
// schedule dispatch, flow-id helpers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "exp/scenario.h"
#include "exp/table.h"
#include "exp/trials.h"
#include "core/strong_id.h"
#include "net/types.h"

namespace flowpulse::exp {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"a", "long-header"});
  t.row({"xxxxx", "1"});
  t.row({"y", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header + separator + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Every line has the same width.
  std::istringstream in{out};
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
}

TEST(Table, ToleratesShortRows) {
  Table t({"a", "b", "c"});
  t.row({"1"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| 1 "), std::string::npos);
}

TEST(Fmt, FormatsNumbers) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(pct(0.0123, 1), "1.2%");
  EXPECT_EQ(pct(1.0, 0), "100%");
}

TEST(EnvKnobs, TrialsOverride) {
  unsetenv("FLOWPULSE_TRIALS");
  EXPECT_EQ(env_trials(7), 7u);
  setenv("FLOWPULSE_TRIALS", "3", 1);
  EXPECT_EQ(env_trials(7), 3u);
  setenv("FLOWPULSE_TRIALS", "garbage", 1);
  EXPECT_EQ(env_trials(7), 7u);
  unsetenv("FLOWPULSE_TRIALS");
}

TEST(EnvKnobs, ScaleOverride) {
  unsetenv("FLOWPULSE_SCALE");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  setenv("FLOWPULSE_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 2.5);
  setenv("FLOWPULSE_SCALE", "-1", 1);
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  unsetenv("FLOWPULSE_SCALE");
}

TEST(MakeSchedule, DispatchesByKind) {
  const net::TopologyInfo shape{4, 2, 1, 1};
  EXPECT_EQ(make_schedule(collective::CollectiveKind::kRingAllReduce, shape, core::Bytes{4096}).num_stages,
            6u);
  EXPECT_EQ(
      make_schedule(collective::CollectiveKind::kRingReduceScatter, shape, core::Bytes{4096}).num_stages,
      3u);
  EXPECT_EQ(
      make_schedule(collective::CollectiveKind::kRingAllGather, shape, core::Bytes{4096}).num_stages, 3u);
  EXPECT_EQ(make_schedule(collective::CollectiveKind::kAllToAll, shape, core::Bytes{4096}).num_stages,
            1u);
  const net::TopologyInfo multi{4, 2, 2, 1};
  const auto hier =
      make_schedule(collective::CollectiveKind::kHierarchicalRing, multi, core::Bytes{4096});
  EXPECT_EQ(hier.kind, collective::CollectiveKind::kHierarchicalRing);
  EXPECT_EQ(hier.ranks, 8u);
}

TEST(AllHostsRing, CoversEveryHostInOrder) {
  const net::TopologyInfo shape{4, 2, 2, 1};
  const auto hosts = all_hosts_ring(shape);
  ASSERT_EQ(hosts.size(), 8u);
  for (const net::HostId h : core::ids<net::HostId>(8)) EXPECT_EQ(hosts[h.v()], h);
}

TEST(RunTrials, ProducesRequestedCountWithDistinctSeeds) {
  ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{4, 2, 1, 1};
  cfg.collective_bytes = core::Bytes{1 << 20};
  cfg.iterations = 2;
  const auto trials = run_trials(cfg, 3);
  ASSERT_EQ(trials.size(), 3u);
  for (const TrialSamples& t : trials) EXPECT_EQ(t.dev.size(), 2u);
}

TEST(RunTrials, SkipDropsLeadingIterations) {
  ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{4, 2, 1, 1};
  cfg.collective_bytes = core::Bytes{1 << 20};
  cfg.iterations = 3;
  const auto trials = run_trials(cfg, 1, /*skip=*/2);
  ASSERT_EQ(trials.size(), 1u);
  EXPECT_EQ(trials[0].dev.size(), 1u);
}

TEST(FlowId, RoundTrips) {
  using namespace net::flowid;
  const net::FlowId f = make_collective(net::IterIndex{12345}, 9);
  EXPECT_TRUE(is_collective(f));
  EXPECT_EQ(iteration_of(f), net::IterIndex{12345});
  EXPECT_EQ(job_of(f), 9u);
  EXPECT_FALSE(is_collective(0));
  EXPECT_FALSE(is_collective(0x1234567890abcdefull));
}

}  // namespace
}  // namespace flowpulse::exp
