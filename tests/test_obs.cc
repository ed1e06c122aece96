// Flight-recorder observability layer: JSON escaping, ring-buffer
// semantics, exporters, the metrics registry, and end-to-end event capture
// from detection and hybrid-fidelity scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/units.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "golden_scenario.h"
#include "json_check.h"
#include "net/types.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::obs {
namespace {

using core::EventKind;
using core::TraceEvent;
using core::TraceLevel;

// ---------------------------------------------------------------------------
// json_escape
// ---------------------------------------------------------------------------

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("debounce"), "debounce");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("leaf3.up1 @ 42us"), "leaf3.up1 @ 42us");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"no\""), "say \\\"no\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape("\b\f"), "\\b\\f");
  EXPECT_EQ(json_escape(std::string{"\x01\x1f", 2}), "\\u0001\\u001f");
}

TEST(JsonEscape, QuoteWrapsAndEscapes) {
  EXPECT_EQ(json_quote("x"), "\"x\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_TRUE(testjson::valid_json(json_quote("hostile \"\\\n\t\x02 payload")));
}

// ---------------------------------------------------------------------------
// FlightRecorder ring semantics
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RecordsBelowCapacityWithoutLoss) {
  FlightRecorder rec{8};
  rec.set_level(TraceLevel::kEvents);
  for (std::uint64_t n = 0; n < 5; ++n) {
    rec.emit(EventKind::kPacketDrop, sim::Time::microseconds(static_cast<std::int64_t>(n)),
             "port", 0, 0, n, 0.0, "");
  }
  EXPECT_EQ(rec.total(), 5u);
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<TraceEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (std::uint64_t n = 0; n < 5; ++n) EXPECT_EQ(snap[n].value, n);
}

TEST(FlightRecorder, WrapOverwritesOldestAndCountsDropped) {
  FlightRecorder rec{4};
  rec.set_level(TraceLevel::kEvents);
  for (std::uint64_t n = 0; n < 11; ++n) {
    rec.emit(EventKind::kPacketDrop, sim::Time::microseconds(static_cast<std::int64_t>(n)),
             "", 0, 0, n, 0.0, "");
  }
  EXPECT_EQ(rec.total(), 11u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 7u);
  // The retained window is the most recent events, oldest first.
  const std::vector<TraceEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].value, 7 + i);
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  FlightRecorder rec{0};
  rec.set_level(TraceLevel::kEvents);
  EXPECT_EQ(rec.capacity(), 1u);
  rec.emit(EventKind::kRtoFire, sim::Time::zero(), "", 1, 2, 3, 0.0, "");
  rec.emit(EventKind::kRtoFire, sim::Time::zero(), "", 4, 5, 6, 0.0, "");
  ASSERT_EQ(rec.snapshot().size(), 1u);
  EXPECT_EQ(rec.snapshot()[0].a, 4u);
}

TEST(FlightRecorder, ClearResetsWindow) {
  FlightRecorder rec{4};
  rec.set_level(TraceLevel::kEvents);
  rec.emit(EventKind::kPacketDrop, sim::Time::zero(), "", 0, 0, 0, 0.0, "");
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, LevelGatesVerboseKinds) {
  FlightRecorder rec{8};
  rec.set_level(TraceLevel::kEvents);
  // wants() is the macro's filter; verbose kinds are refused at kEvents.
  EXPECT_TRUE(rec.wants(EventKind::kPacketDrop));
  EXPECT_TRUE(rec.wants(EventKind::kMitigation));
  EXPECT_FALSE(rec.wants(EventKind::kIteration));
  EXPECT_FALSE(rec.wants(EventKind::kRunStart));
  rec.set_level(TraceLevel::kVerbose);
  EXPECT_TRUE(rec.wants(EventKind::kIteration));
  rec.set_level(TraceLevel::kOff);
  EXPECT_FALSE(rec.wants(EventKind::kPacketDrop));
}

TEST(FlightRecorder, EntityNameIsBoundedCopy) {
  FlightRecorder rec{2};
  rec.set_level(TraceLevel::kEvents);
  const std::string long_name(100, 'x');
  rec.emit(EventKind::kPacketDrop, sim::Time::zero(), long_name.c_str(), 0, 0, 0, 0.0, "");
  const TraceEvent e = rec.snapshot()[0];
  EXPECT_EQ(std::strlen(e.entity), sizeof(e.entity) - 1);
  EXPECT_EQ(entity_label(e), std::string(sizeof(e.entity) - 1, 'x'));
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::vector<TraceEvent> sample_window() {
  std::vector<TraceEvent> events;
  TraceEvent drop;
  drop.time = sim::Time::microseconds(10);
  drop.kind = EventKind::kPacketDrop;
  std::snprintf(drop.entity, sizeof(drop.entity), "%s", "spine0.down5");
  drop.a = 3;
  drop.b = 5;
  drop.value = 4096;
  drop.detail = "silent";
  events.push_back(drop);

  TraceEvent pause;
  pause.time = sim::Time::microseconds(12);
  pause.kind = EventKind::kPfcPause;
  std::snprintf(pause.entity, sizeof(pause.entity), "%s", "leaf1");
  pause.a = 2;
  pause.b = 0;
  pause.value = 150000;
  pause.detail = "xoff";
  events.push_back(pause);

  TraceEvent rto;
  rto.time = sim::Time::microseconds(18);
  rto.kind = EventKind::kRtoFire;
  rto.a = 4;
  rto.b = 7;
  rto.value = 11;
  events.push_back(rto);

  TraceEvent resume = pause;
  resume.time = sim::Time::microseconds(25);
  resume.kind = EventKind::kPfcResume;
  resume.value = 90000;
  resume.detail = "xon";
  events.push_back(resume);

  TraceEvent flag;
  flag.time = sim::Time::microseconds(40);
  flag.kind = EventKind::kDetectorFlag;
  flag.a = 1;
  flag.b = 0;
  flag.value = 2;
  flag.dval = 0.25;
  flag.detail = "shortfall";
  events.push_back(flag);

  TraceEvent mit;
  mit.time = sim::Time::microseconds(41);
  mit.kind = EventKind::kMitigation;
  mit.a = 1;
  mit.b = 0;
  mit.value = 2;
  mit.detail = "debounce";
  events.push_back(mit);
  return events;
}

TEST(ChromeExport, EmitsValidJsonWithAllEvents) {
  const std::string json = chrome_trace_json(sample_window());
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"drop\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pfc_pause\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rto\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"detector_flag\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mitigation\""), std::string::npos);
  // Entities become named tracks.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"spine0.down5\""), std::string::npos);
  EXPECT_NE(json.find("\"host4\""), std::string::npos);     // synthesized for RTO
  EXPECT_NE(json.find("\"leaf1.up0\""), std::string::npos); // synthesized for flag
}

TEST(ChromeExport, PairsPfcPauseWithResumeAsDuration) {
  const std::string json = chrome_trace_json(sample_window());
  // The pause becomes an X slice with dur = 25us − 12us; the resume is
  // folded away (no instant event named pfc_resume).
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":13"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"name\":\"pfc_resume\""), std::string::npos);
}

TEST(ChromeExport, UnpairedPauseStretchesToWindowEnd) {
  std::vector<TraceEvent> events = sample_window();
  events.erase(events.begin() + 3);  // drop the resume
  const std::string json = chrome_trace_json(events);
  EXPECT_TRUE(testjson::valid_json(json));
  // Window ends at the mitigation event (41us); pause opened at 12us.
  EXPECT_NE(json.find("\"ph\":\"X\",\"dur\":29"), std::string::npos) << json;
}

TEST(ChromeExport, HostileStringsStayValidJson) {
  std::vector<TraceEvent> events = sample_window();
  std::snprintf(events[0].entity, sizeof(events[0].entity), "%s", "ev\"il\\\nport");
  events[0].detail = "quote\" backslash\\ newline\n tab\t control\x01 end";
  const std::string json = chrome_trace_json(events);
  EXPECT_TRUE(testjson::valid_json(json)) << json;
}

TEST(ChromeExport, EmptyWindow) {
  EXPECT_TRUE(testjson::valid_json(chrome_trace_json({})));
}

TEST(TextTimeline, OneLinePerEventWithKindAndEntity) {
  const std::string text = text_timeline(sample_window());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("drop"), std::string::npos);
  EXPECT_NE(text.find("pfc_resume"), std::string::npos);
  EXPECT_NE(text.find("spine0.down5"), std::string::npos);
  EXPECT_NE(text.find("host4"), std::string::npos);
  EXPECT_NE(text.find("debounce"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Histogram, BucketsCountAndSummarize) {
  Histogram h;
  h.add(0.0);
  h.add(0.5);
  h.add(1.0);
  h.add(3.0);
  h.add(1000.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 200.9, 1e-9);
  EXPECT_EQ(h.bucket(0), 2u);  // [0, 1)
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 1u);  // [2, 4)
  // Median bound: two of five values are < 1, the third lands in [1, 2).
  EXPECT_EQ(h.quantile_bound(0.5), 2.0);
  EXPECT_TRUE(testjson::valid_json(h.to_json()));
}

TEST(Histogram, EmptyIsWellDefined) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile_bound(0.99), 0.0);
  EXPECT_TRUE(testjson::valid_json(h.to_json()));
}

TEST(TraceMetrics, ReplaysWindowIntoRegistry) {
  const TraceMetrics m = TraceMetrics::from_events(sample_window());
  EXPECT_EQ(m.count(EventKind::kPacketDrop), 1u);
  EXPECT_EQ(m.count(EventKind::kPfcPause), 1u);
  EXPECT_EQ(m.count(EventKind::kPfcResume), 1u);
  EXPECT_EQ(m.count(EventKind::kRtoFire), 1u);
  EXPECT_EQ(m.count(EventKind::kDetectorFlag), 1u);
  EXPECT_EQ(m.count(EventKind::kMitigation), 1u);
  EXPECT_EQ(m.retransmits, 1u);
  EXPECT_EQ(m.drop_bytes.count(), 1u);
  EXPECT_EQ(m.drop_bytes.max(), 4096.0);
  // Pause 12us → resume 25us on the same (entity, port, class).
  EXPECT_EQ(m.pause_us.count(), 1u);
  EXPECT_NEAR(m.pause_us.max(), 13.0, 1e-9);
  EXPECT_EQ(m.queue_bytes_at_pause.count(), 1u);
  EXPECT_EQ(m.detector_rel_dev.count(), 1u);
  EXPECT_EQ(m.detector_rel_dev.max(), 0.25);
  const std::string json = m.to_json();
  EXPECT_TRUE(testjson::valid_json(json)) << json;
  EXPECT_NE(json.find("\"drop\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pause_us\":{"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The FP_TRACE macro itself
// ---------------------------------------------------------------------------

TEST(TraceMacro, EmitsThroughSimulatorIntoRecorder) {
  sim::Simulator sim{7};
  FlightRecorder rec{64};
  rec.set_level(TraceLevel::kVerbose);
  sim.set_trace(&rec);
  sim.schedule_in(sim::Time::microseconds(1), [] {});
  sim.run();
  // run_until emits run_start and run_stop markers at kVerbose.
  const std::vector<TraceEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, EventKind::kRunStart);
  EXPECT_EQ(snap[1].kind, EventKind::kRunStop);
  EXPECT_EQ(snap[1].value, 1u);  // events executed
  EXPECT_STREQ(snap[1].detail, "drained");
}

TEST(TraceMacro, NoSinkMeansNoRecording) {
  sim::Simulator sim{7};
  sim.schedule_in(sim::Time::microseconds(1), [] {});
  sim.run();  // must not crash with trace() == nullptr
  SUCCEED();
}

TEST(TraceMacro, OffLevelRecordsNothing) {
  sim::Simulator sim{7};
  FlightRecorder rec{64};  // level defaults to kOff
  sim.set_trace(&rec);
  sim.schedule_in(sim::Time::microseconds(1), [] {});
  sim.run();
  EXPECT_EQ(rec.total(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a detection scenario fills the flight recorder
// ---------------------------------------------------------------------------

// The trace_detection example's scenario: AllToAll (so incast provokes the
// PFC machinery — ring traffic never queues enough to pause) with a gray
// downlink appearing mid-run, closed-loop mitigation on. Reliably records
// every event kind in the taxonomy.
exp::ScenarioConfig traced_detection_scenario() {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective = collective::CollectiveKind::kAllToAll;
  cfg.collective_bytes = core::Bytes{8ull << 20};
  cfg.iterations = 12;
  cfg.seed = 1;
  cfg.fabric.pfc.xoff_bytes = core::Bytes{9 * 1024};
  cfg.fabric.pfc.xon_bytes = core::Bytes{4 * 1024};
  cfg.flowpulse.threshold = 0.05;  // above AllToAll quantization noise
  cfg.mitigation.enabled = true;
  cfg.mitigation.debounce_iterations = 2;
  cfg.mitigation.settle_iterations = 1;
  cfg.mitigation.probation_iterations = 2;
  exp::NewFault f;
  f.leaf = net::LeafId{5};
  f.uplink = net::UplinkIndex{1};
  f.where = exp::NewFault::Where::kDownlink;
  f.spec = net::FaultSpec::random_drop(0.15, sim::Time::microseconds(150));
  cfg.new_faults.push_back(f);
  cfg.trace.level = TraceLevel::kEvents;
  cfg.trace.capacity = 1 << 16;
  return cfg;
}

TEST(TraceE2E, DetectionScenarioCapturesFullTaxonomy) {
  exp::Scenario s{traced_detection_scenario()};
  const exp::ScenarioResult r = s.run();
  ASSERT_FALSE(r.trace_events.empty());

  std::set<EventKind> kinds;
  for (const TraceEvent& e : r.trace_events) kinds.insert(e.kind);
  EXPECT_TRUE(kinds.count(EventKind::kPacketDrop)) << "black hole must drop packets";
  EXPECT_TRUE(kinds.count(EventKind::kPfcPause)) << "tight xoff must provoke PFC";
  EXPECT_TRUE(kinds.count(EventKind::kRtoFire)) << "drops must fire retransmit timers";
  EXPECT_TRUE(kinds.count(EventKind::kDetectorFlag));
  EXPECT_TRUE(kinds.count(EventKind::kLocalization));
  EXPECT_TRUE(kinds.count(EventKind::kMitigation));

  // Detector flags name the faulted link.
  bool flagged_faulted_link = false;
  for (const TraceEvent& e : r.trace_events) {
    if (e.kind == EventKind::kDetectorFlag && e.a == 5 && e.b == 1) {
      flagged_faulted_link = true;
    }
  }
  EXPECT_TRUE(flagged_faulted_link);

  // Automatic dumps were taken on flagged iterations, capped and deduped.
  ASSERT_FALSE(r.trace_dumps.empty());
  EXPECT_LE(r.trace_dumps.size(), std::size_t{8});
  for (std::size_t i = 1; i < r.trace_dumps.size(); ++i) {
    EXPECT_NE(r.trace_dumps[i].iteration, r.trace_dumps[i - 1].iteration);
  }
  EXPECT_NE(r.trace_dumps.front().reason.find("leaf"), std::string::npos);

  // The Chrome export of the full window is strictly valid JSON.
  const std::string chrome = chrome_trace_json(r.trace_events);
  EXPECT_TRUE(testjson::valid_json(chrome));
  EXPECT_NE(chrome.find("\"name\":\"mitigation\""), std::string::npos);

  // The run-summary JSON embeds the trace section and stays valid.
  const std::string report = exp::to_json(r);
  EXPECT_TRUE(testjson::valid_json(report));
  EXPECT_NE(report.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(report.find("\"metrics\":{"), std::string::npos);
}

TEST(TraceE2E, SameSeedSameTrace) {
  // Tracing must not perturb determinism: two runs record identical windows.
  const exp::ScenarioConfig cfg = traced_detection_scenario();
  exp::Scenario a{cfg};
  exp::Scenario b{cfg};
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_EQ(ra.trace_events.size(), rb.trace_events.size());
  for (std::size_t i = 0; i < ra.trace_events.size(); ++i) {
    EXPECT_EQ(ra.trace_events[i].time.ps(), rb.trace_events[i].time.ps()) << i;
    EXPECT_EQ(ra.trace_events[i].kind, rb.trace_events[i].kind) << i;
    EXPECT_EQ(ra.trace_events[i].value, rb.trace_events[i].value) << i;
  }
}

TEST(TraceE2E, UntracedRunStaysEmpty) {
  exp::ScenarioConfig cfg = traced_detection_scenario();
  cfg.trace.level = TraceLevel::kOff;  // and no FLOWPULSE_TRACE env in tests
  cfg.iterations = 2;
  exp::Scenario s{cfg};
  const exp::ScenarioResult r = s.run();
  EXPECT_TRUE(r.trace_events.empty());
  EXPECT_TRUE(r.trace_dumps.empty());
  EXPECT_NE(exp::to_json(r).find("\"trace\":null"), std::string::npos);
}

TEST(TraceE2E, VerboseTracingOnlyObserves) {
  // The recorder watches the golden scenario at its most detailed level;
  // with the trace fields cleared, the report must hash to the untraced
  // golden and the run must execute exactly as many events.
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  const std::uint64_t untraced_events = exp::Scenario{cfg}.run().events;
  cfg.trace.level = TraceLevel::kVerbose;
  exp::Scenario s{cfg};
  exp::ScenarioResult r = s.run();
  EXPECT_FALSE(r.trace_events.empty());
  EXPECT_FALSE(r.trace_dumps.empty());
  EXPECT_EQ(r.events, untraced_events);
  r.trace_events.clear();
  r.trace_dropped = 0;
  r.trace_dumps.clear();
  r.wall_seconds = 0.0;
  const std::string json = exp::to_json(r) + exp::alerts_to_json(r.detections) +
                           exp::deviations_to_csv(r) +
                           exp::mitigation_to_json(r.mitigation_events, r.recovery);
  EXPECT_EQ(testing::fnv1a64(json), 18106918244164645694ull);
}

TEST(TraceE2E, HybridFidelitySwitchesAreTraced) {
  // A transient gray link in a hybrid run: the engine demotes to packets
  // around the fault and promotes back once it has passed. Each switch the
  // fidelity stats count is one kFidelity event in the trace, and so is
  // each flow iteration's fast-forward (a compute gap is not one).
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.mitigation.enabled = false;
  cfg.iterations = 24;
  cfg.new_faults.front().spec = net::FaultSpec::random_drop(
      0.10, sim::Time::microseconds(300), sim::Time::microseconds(500));
  cfg.fidelity.mode = fp::FidelityMode::kHybrid;
  cfg.trace.level = TraceLevel::kEvents;
  cfg.trace.capacity = 1 << 16;
  exp::Scenario s{cfg};
  const exp::ScenarioResult r = s.run();
  ASSERT_TRUE(r.fidelity.enabled);
  ASSERT_EQ(r.trace_dropped, 0u);
  std::uint32_t demotions = 0;
  std::uint32_t promotions = 0;
  std::uint32_t fast_forwards = 0;
  for (const TraceEvent& e : r.trace_events) {
    if (e.kind != EventKind::kFidelity) continue;
    const std::string detail = e.detail;
    demotions += detail == "demote-to-packet" ? 1 : 0;
    promotions += detail == "promote-to-flow" ? 1 : 0;
    fast_forwards += detail == "fast-forward" ? 1 : 0;
  }
  EXPECT_GE(r.fidelity.demotions, 1u);
  EXPECT_GE(r.fidelity.promotions, 1u);
  EXPECT_EQ(demotions, r.fidelity.demotions);
  EXPECT_EQ(promotions, r.fidelity.promotions);
  EXPECT_GE(r.fidelity.packet_iterations, 1u);
  EXPECT_EQ(fast_forwards, r.fidelity.flow_iterations);
  EXPECT_EQ(s.simulator().fast_forwards(), r.fidelity.flow_iterations);
}

TEST(TraceE2E, FlowFidelityRunIsTraced) {
  // kFlow synthesizes every iteration: the trace holds one fast-forward per
  // iteration and no fidelity switch, and the detector's flags on the
  // synthesized records name the faulted link, as packet-mode flags do.
  exp::ScenarioConfig cfg = testing::golden_scenario_config();
  cfg.mitigation.enabled = false;
  cfg.fidelity.mode = fp::FidelityMode::kFlow;
  cfg.trace.level = TraceLevel::kEvents;
  cfg.trace.capacity = 1 << 16;
  exp::Scenario s{cfg};
  const exp::ScenarioResult r = s.run();
  ASSERT_TRUE(r.fidelity.enabled);
  ASSERT_EQ(r.trace_dropped, 0u);
  EXPECT_EQ(r.fidelity.flow_iterations, cfg.iterations);
  std::uint32_t fast_forwards = 0;
  std::uint32_t switches = 0;
  bool flagged_faulted_link = false;
  for (const TraceEvent& e : r.trace_events) {
    if (e.kind == EventKind::kDetectorFlag && e.a == 5 && e.b == 3) {
      flagged_faulted_link = true;
    }
    if (e.kind != EventKind::kFidelity) continue;
    const std::string detail = e.detail;
    if (detail == "fast-forward") {
      ++fast_forwards;
    } else {
      ++switches;
    }
  }
  EXPECT_EQ(fast_forwards, cfg.iterations);
  EXPECT_EQ(s.simulator().fast_forwards(), cfg.iterations);
  EXPECT_EQ(switches, 0u);
  EXPECT_TRUE(flagged_faulted_link);
}

TEST(TraceE2E, LearnedModelAlertsReachEveryOutput) {
  // A learned-model run whose 5% drop starts after learning: its alerts
  // leave through the same tail as a fixed model's, so they reach the
  // results, faulty_results(), the alert report, the trace and its dumps.
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective_bytes = core::Bytes{8ull << 20};
  cfg.iterations = 8;
  cfg.seed = 1;
  cfg.flowpulse.model = fp::ModelKind::kLearned;
  cfg.flowpulse.learned.learn_iterations = 3;
  exp::NewFault f;
  f.leaf = net::LeafId{4};
  f.uplink = net::UplinkIndex{2};
  f.where = exp::NewFault::Where::kDownlink;
  f.spec = net::FaultSpec::random_drop(0.05, sim::Time::microseconds(600));
  cfg.new_faults.push_back(f);
  cfg.trace.level = TraceLevel::kEvents;
  cfg.trace.capacity = 1 << 16;
  exp::Scenario s{cfg};
  const exp::ScenarioResult r = s.run();
  ASSERT_EQ(r.trace_dropped, 0u);

  // One result per leaf and iteration; the learning window is unjudged.
  ASSERT_EQ(r.detections.size(), std::size_t{8} * cfg.iterations);
  std::size_t faulty = 0;
  for (const fp::DetectionResult& d : r.detections) {
    faulty += d.faulty() ? 1 : 0;
    if (d.iteration.v() < 3) {
      EXPECT_STREQ(d.unjudged, "learning");
    }
  }
  const std::vector<fp::DetectionResult> alerted = s.flowpulse().faulty_results();
  ASSERT_FALSE(alerted.empty());
  EXPECT_EQ(alerted.size(), faulty);
  std::size_t alerted_ports = 0;
  bool named_faulted_link = false;
  for (const fp::DetectionResult& d : alerted) {
    alerted_ports += d.alerts.size();
    for (const fp::PortAlert& a : d.alerts) {
      named_faulted_link |= d.leaf == net::LeafId{4} && a.uplink == net::UplinkIndex{2};
    }
  }
  EXPECT_TRUE(named_faulted_link);

  const std::string report = exp::alerts_to_json(alerted);
  EXPECT_TRUE(testjson::valid_json(report));
  EXPECT_NE(report.find("\"leaf\":4,\"iteration\":3,\"port\":2"), std::string::npos);

  // One detector flag per alerted port, the faulted link among them, and an
  // automatic dump of the flagged iterations.
  std::size_t flags = 0;
  bool flagged_faulted_link = false;
  for (const TraceEvent& e : r.trace_events) {
    if (e.kind != EventKind::kDetectorFlag) continue;
    ++flags;
    flagged_faulted_link |= e.a == 4 && e.b == 2;
  }
  EXPECT_EQ(flags, alerted_ports);
  EXPECT_TRUE(flagged_faulted_link);
  EXPECT_FALSE(r.trace_dumps.empty());
}

}  // namespace
}  // namespace flowpulse::obs
