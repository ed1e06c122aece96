// PERF — engineering microbenchmarks (google-benchmark): the substrate's
// raw speed and the in-switch cost of FlowPulse's own operations. The
// detector figures matter for deployability: the per-iteration check is a
// handful of compares per port, well within a switch control plane.
#include <benchmark/benchmark.h>

#include <vector>

#include "collective/demand_matrix.h"
#include "collective/schedule.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "exp/scenario.h"
#include "exp/trials.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/detector.h"
#include "flowpulse/fidelity.h"
#include "flowpulse/monitor.h"
#include "flowpulse/system.h"
#include "net/fat_tree.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

using namespace flowpulse;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    sim::Simulator sim;
    std::int64_t fired = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      sim.schedule_at(sim::Time::nanoseconds(i % 997), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventQueueHopPattern(benchmark::State& state) {
  // Hold model of a packet run's event queue: `pending` events stay queued,
  // and each pop schedules one successor at a delay drawn from the mix
  // measured on clos1k (seed 1, 10.6 M events): 200 ns propagation 45.05%,
  // 21.76 ns data serialization 22.54%, 1.28 ns ACK serialization 22.52%,
  // the 5 us RTO floor 9.84%, and 0.05% other delays, here spread over
  // 5-40 us. BM_EventQueueScheduleRun covers the opposite case: almost
  // every delay distinct.
  const std::size_t pending = static_cast<std::size_t>(state.range(0));
  sim::Rng rng{7};
  std::vector<sim::Time> delays(1 << 16);
  for (sim::Time& d : delays) {
    const std::uint64_t u = rng.next_below(10'000);
    d = u < 4'505   ? sim::Time::nanoseconds(200)
        : u < 6'759 ? sim::Time::picoseconds(21'760)
        : u < 9'011 ? sim::Time::picoseconds(1'280)
        : u < 9'995 ? sim::Time::microseconds(5)
                    : sim::Time::picoseconds(5'000'000 +
                                             static_cast<std::int64_t>(rng.next_below(35'000'000)));
  }
  const std::size_t mask = delays.size() - 1;
  sim::EventQueue q;
  sim::Time now = sim::Time::zero();
  std::size_t k = 0;
  std::int64_t fired = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.schedule(now + delays[k++ & mask], now, 0, [&fired] { ++fired; });
  }
  for (auto _ : state) {
    sim::EventQueue::Event ev = q.pop();
    now = ev.at;
    ev.fn();
    q.schedule(now + delays[k++ & mask], now, 0, [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHopPattern)->Arg(1 << 14);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng{42};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngU64);

void BM_FabricPacketDelivery(benchmark::State& state) {
  // End-to-end packet cost through host→leaf→spine→leaf→host.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim{1};
    net::FatTreeConfig cfg;
    cfg.shape = net::TopologyInfo{8, 4, 1, 1};
    net::FatTree net{sim, cfg};
    int got = 0;
    net.host(net::HostId{7}).set_rx_handler([&](const net::Packet&) { ++got; });
    const int n = 4096;
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.src = net::HostId{0};
      p.dst = net::HostId{7};
      p.size_bytes = core::Bytes{4160};
      net.host(net::HostId{0}).nic().enqueue(p);
    }
    sim.run();
    benchmark::DoNotOptimize(got);
    state.SetItemsProcessed(state.items_processed() + n);
  }
}
BENCHMARK(BM_FabricPacketDelivery)->Unit(benchmark::kMillisecond);

void BM_RingIterationSimulation(benchmark::State& state) {
  // Whole-stack cost of one training iteration at paper scale. The
  // events_per_second counter is the repo's headline simulation-throughput
  // number (see BENCH_perf.json / DESIGN.md "Performance").
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0)) << 20;
  std::uint64_t events_total = 0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg;
    cfg.fabric.shape = net::TopologyInfo{32, 16, 1, 1};
    cfg.collective = collective::CollectiveKind::kRingReduceScatter;
    cfg.collective_bytes = core::Bytes{bytes};
    cfg.iterations = 1;
    exp::Scenario s{cfg};
    const exp::ScenarioResult r = s.run();
    benchmark::DoNotOptimize(r.events);
    events_total += r.events;
    state.counters["events"] = static_cast<double>(r.events);
  }
  state.counters["events_per_second"] =
      benchmark::Counter(static_cast<double>(events_total), benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(state.range(0)) + " MiB collective");
}
BENCHMARK(BM_RingIterationSimulation)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LanedEvents(benchmark::State& state) {
  // Serial vs sharded-event-lane engine on the same deterministic faulted
  // scenario (both produce bit-identical reports — tests/test_lanes.cc).
  // Arg 0 runs the classic serial engine; Arg N >= 2 shards into N lanes
  // with one worker thread per lane. events_per_second(N) /
  // events_per_second(0) is the laned speedup on this machine — on a
  // single-core runner expect <= 1.0: the provenance merge and round
  // barrier are pure overhead without real parallelism (BENCH_perf.json
  // records both numbers and the core count for honest comparison).
  const std::int32_t lanes = static_cast<std::int32_t>(state.range(0));
  std::uint64_t events_total = 0;
  bool laned = false;
  for (auto _ : state) {
    exp::ScenarioConfig cfg;
    cfg.fabric.shape = net::TopologyInfo{16, 8, 1, 1};
    cfg.collective = collective::CollectiveKind::kRingReduceScatter;
    cfg.collective_bytes = core::Bytes{1ull << 20};
    cfg.iterations = 2;
    cfg.lanes = lanes;
    cfg.new_faults.push_back([] {
      exp::NewFault f;
      f.leaf = net::LeafId{3};
      f.uplink = net::UplinkIndex{1};
      f.where = exp::NewFault::Where::kDownlink;
      f.spec = net::FaultSpec::black_hole(sim::Time::microseconds(50));
      return f;
    }());
    exp::Scenario s{cfg};
    laned = s.laned();
    const exp::ScenarioResult r = s.run();
    benchmark::DoNotOptimize(r.events);
    events_total += r.events;
  }
  state.counters["events_per_second"] =
      benchmark::Counter(static_cast<double>(events_total), benchmark::Counter::kIsRate);
  state.counters["lanes"] = static_cast<double>(lanes);
  state.SetLabel(laned ? std::to_string(lanes) + " lanes" : "serial");
}
BENCHMARK(BM_LanedEvents)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// Trial-engine throughput: an 8-trial seeded sweep of a small fault
// scenario, serial vs the parallel engine (jobs = FLOWPULSE_JOBS /
// hardware_concurrency). Both runners produce bit-identical TrialSamples
// (asserted in tests/test_parallel_trials.cc); the ratio of these two
// benches is the trial-level speedup on this machine.
exp::ScenarioConfig trial_sweep_config() {
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective = collective::CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{2ull << 20};
  cfg.iterations = 2;
  cfg.new_faults.push_back([] {
    exp::NewFault f;
    f.leaf = net::LeafId{3};
    f.uplink = net::UplinkIndex{1};
    f.where = exp::NewFault::Where::kBoth;
    f.spec = net::FaultSpec::random_drop(0.05);
    return f;
  }());
  return cfg;
}
constexpr std::uint32_t kSweepTrials = 8;

void BM_TrialSweepSerial(benchmark::State& state) {
  const exp::ScenarioConfig cfg = trial_sweep_config();
  std::uint64_t trials_total = 0;
  for (auto _ : state) {
    const auto samples = exp::run_trials(cfg, kSweepTrials);
    benchmark::DoNotOptimize(samples.data());
    trials_total += samples.size();
  }
  state.counters["trials_per_second"] =
      benchmark::Counter(static_cast<double>(trials_total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrialSweepSerial)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TrialSweepParallel(benchmark::State& state) {
  const exp::ScenarioConfig cfg = trial_sweep_config();
  const unsigned jobs = static_cast<unsigned>(state.range(0));
  std::uint64_t trials_total = 0;
  for (auto _ : state) {
    const auto samples = exp::run_trials_parallel(cfg, kSweepTrials, 0, jobs);
    benchmark::DoNotOptimize(samples.data());
    trials_total += samples.size();
  }
  state.counters["trials_per_second"] =
      benchmark::Counter(static_cast<double>(trials_total), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_TrialSweepParallel)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FidelityModeIterations(benchmark::State& state) {
  // End-to-end cost per training iteration under each fidelity mode on a
  // healthy-dominated multi-iteration run — the workload the hybrid engine
  // exists for. iterations_per_second(hybrid) / iterations_per_second(packet)
  // is the engine's end-to-end speedup; BENCH_perf.json tracks it.
  const auto mode = static_cast<fp::FidelityMode>(state.range(0));
  std::uint64_t iters_total = 0;
  std::uint64_t events_total = 0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg;
    cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
    cfg.collective = collective::CollectiveKind::kRingReduceScatter;
    cfg.collective_bytes = core::Bytes{1ull << 20};
    cfg.iterations = 16;
    cfg.fidelity.mode = mode;
    exp::Scenario s{cfg};
    const exp::ScenarioResult r = s.run();
    benchmark::DoNotOptimize(r.events);
    iters_total += r.iterations_completed;
    events_total += r.events;
  }
  state.counters["iterations_per_second"] =
      benchmark::Counter(static_cast<double>(iters_total), benchmark::Counter::kIsRate);
  state.counters["events"] = static_cast<double>(
      state.iterations() ? events_total / state.iterations() : 0);
  state.SetLabel(fp::fidelity_mode_name(mode));
}
BENCHMARK(BM_FidelityModeIterations)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_StreamingDetectorObserve(benchmark::State& state) {
  // The O(1) streaming alternative to BM_DetectorEvaluate: a row under the
  // z-rule judges and EWMA-folds one 16-port iteration record, allocating
  // nothing but its result.
  fp::RowBaseline det{16, {.detector = fp::DetectorKind::kStreaming}};
  fp::PortLoadMap pred{32, 16};
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(16)) {
    pred.add(net::LeafId{5}, u, net::LeafId{4}, 1.0e6);
  }
  det.install(pred.row(net::LeafId{5}));
  fp::IterationRecord rec;
  rec.leaf = net::LeafId{5};
  rec.bytes.assign(16, 1.0e6);
  rec.by_src.assign(16, std::vector<double>(32, 0.0));
  for (auto& v : rec.by_src) v[4] = 1.0e6;
  std::uint32_t iter = 0;
  for (auto _ : state) {
    rec.iteration = net::IterIndex{iter++};
    benchmark::DoNotOptimize(det.observe(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamingDetectorObserve);

void BM_AnalyticalPredict(benchmark::State& state) {
  const net::TopologyInfo info{32, 16, 1, 1};
  net::RoutingState routing{32, 16};
  routing.set_known_failed(net::LeafId{3}, net::UplinkIndex{7});
  const auto schedule = collective::ring_reduce_scatter(32, core::Bytes{64ull << 20});
  std::vector<net::HostId> hosts(32, net::HostId{});
  for (const net::HostId h : core::ids<net::HostId>(32)) hosts[h.v()] = h;
  const auto demand = collective::DemandMatrix::from_schedule(schedule, hosts, 32);
  const fp::AnalyticalModel model{info, 4096, core::Bytes{64}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(demand, routing));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyticalPredict);

void BM_MonitorRecord(benchmark::State& state) {
  // The per-packet cost a programmable switch pays: one filter + two adds.
  const net::TopologyInfo info{32, 16, 1, 1};
  fp::PortMonitor mon{net::LeafId{5}, fp::Tier::leaves_of(info)};
  net::Packet p;
  p.flow_id = net::flowid::make_collective(net::IterIndex{0});
  p.src = net::HostId{4};
  p.size_bytes = core::Bytes{4160};
  p.kind = net::PacketKind::kData;
  net::UplinkIndex u{0};
  for (auto _ : state) {
    mon.record(u, p);
    u = net::UplinkIndex{(u.v() + 1) % 16};
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorRecord);

// --------------------------------------------------------------------------
// Observability. Every build compiles the FP_TRACE call sites, so
// BM_TraceOffOverhead prices them with no level set: one pointer test per
// call site. BM_TracedIteration runs the same scenario with the recorder
// live; the difference between the two is the cost of recording. The
// remaining benches price one emit and the offline exporters.
exp::ScenarioConfig trace_bench_config() {
  // A faulted iteration, so a live recorder has real drop/RTO events to
  // capture — identical simulation in the off and on benches.
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective = collective::CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{2ull << 20};
  cfg.iterations = 1;
  cfg.new_faults.push_back([] {
    exp::NewFault f;
    f.leaf = net::LeafId{3};
    f.uplink = net::UplinkIndex{1};
    f.where = exp::NewFault::Where::kDownlink;
    f.spec = net::FaultSpec::random_drop(0.10);
    return f;
  }());
  return cfg;
}

void BM_TraceOffOverhead(benchmark::State& state) {
  // One instrumented iteration with no runtime level set: the cost every
  // untraced run pays for the FP_TRACE call sites.
  for (auto _ : state) {
    exp::Scenario s{trace_bench_config()};
    const exp::ScenarioResult r = s.run();
    benchmark::DoNotOptimize(r.events);
    state.counters["events"] = static_cast<double>(r.events);
  }
}
BENCHMARK(BM_TraceOffOverhead)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TraceEmit(benchmark::State& state) {
  // The hot-path cost when recording: one level check + a bounded struct
  // copy into a preallocated ring slot.
  obs::FlightRecorder rec{obs::FlightRecorder::kDefaultCapacity};
  rec.set_level(core::TraceLevel::kEvents);
  std::uint64_t n = 0;
  for (auto _ : state) {
    rec.emit(core::EventKind::kPacketDrop, sim::Time::nanoseconds(static_cast<std::int64_t>(n)),
             "leaf3.up1", 3, 1, 4160, 0.0, "silent");
    ++n;
  }
  benchmark::DoNotOptimize(rec.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

void BM_TracedIteration(benchmark::State& state) {
  // BM_TraceOffOverhead's scenario with the recorder live at level=events:
  // the delta is the full-system cost of always-on flight recording.
  std::uint64_t recorded_total = 0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg = trace_bench_config();
    cfg.trace.level = core::TraceLevel::kEvents;
    exp::Scenario s{cfg};
    const exp::ScenarioResult r = s.run();
    benchmark::DoNotOptimize(r.events);
    recorded_total += r.trace_events.size();
    state.counters["events"] = static_cast<double>(r.events);
  }
  state.counters["trace_events_recorded"] = static_cast<double>(recorded_total);
}
BENCHMARK(BM_TracedIteration)->Unit(benchmark::kMillisecond)->UseRealTime();

std::vector<core::TraceEvent> bench_trace_window(std::size_t n) {
  obs::FlightRecorder rec{n};
  rec.set_level(core::TraceLevel::kEvents);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = sim::Time::nanoseconds(static_cast<std::int64_t>(i * 337));
    switch (i % 4) {
      case 0:
        rec.emit(core::EventKind::kPacketDrop, t, "spine1.down5", 4,
                 static_cast<std::uint32_t>(i % 8), 4160, 0.0, "silent");
        break;
      case 1:
        rec.emit(core::EventKind::kPfcPause, t, "leaf3", static_cast<std::uint32_t>(i % 4), 0,
                 150000, 0.0, "xoff");
        break;
      case 2:
        rec.emit(core::EventKind::kPfcResume, t, "leaf3", static_cast<std::uint32_t>(i % 4), 0,
                 90000, 0.0, "xon");
        break;
      default:
        rec.emit(core::EventKind::kRtoFire, t, "", static_cast<std::uint32_t>(i % 32),
                 static_cast<std::uint32_t>(i), i, 0.0, "");
        break;
    }
  }
  return rec.snapshot();
}

void BM_ChromeExport(benchmark::State& state) {
  const auto window = bench_trace_window(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::chrome_trace_json(window));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChromeExport)->Arg(1 << 12);

void BM_TraceMetricsSummarize(benchmark::State& state) {
  // The counter/histogram registry reduction exp::report embeds.
  const auto window = bench_trace_window(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const obs::TraceMetrics m = obs::TraceMetrics::from_events(window);
    benchmark::DoNotOptimize(m.to_json());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceMetricsSummarize)->Arg(1 << 12);

void BM_DetectorEvaluate(benchmark::State& state) {
  // The per-iteration cost: compare 16 ports against prediction.
  fp::PortLoadMap pred{32, 16};
  for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(16)) {
    pred.add(net::LeafId{5}, u, net::LeafId{4}, 1.0e6);
  }
  fp::IterationRecord rec;
  rec.leaf = net::LeafId{5};
  rec.iteration = net::IterIndex{1};
  rec.bytes.assign(16, 1.0e6);
  rec.by_src.assign(16, std::vector<double>(32, 0.0));
  for (auto& v : rec.by_src) v[4] = 1.0e6;
  fp::RowBaseline row{16, {.threshold = 0.01}};
  row.install(pred.row(net::LeafId{5}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(row.observe(rec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorEvaluate);

void BM_DaemonIngestCounters(benchmark::State& state) {
  // The flowpulsed hot path, sockets excluded: one COUNTERS frame through
  // the engine — decode, registration/ownership/dimension checks, streaming
  // detection, verdict fold, OK reply. The acceptance floor is 100k/s on
  // one core; this is the number record_perf.sh tracks.
  const net::TopologyInfo topo{32, 16, 1, 1};
  daemon::EngineConfig cfg;
  cfg.topo = topo;
  cfg.system.detector = fp::DetectorKind::kStreaming;
  daemon::DaemonEngine engine{cfg};
  daemon::Session session;

  daemon::Hello hello;
  hello.topo = topo;
  hello.first_leaf = net::LeafId{0};
  hello.leaf_count = topo.leaves;
  const auto hello_frame = daemon::encode_hello(hello);
  (void)engine.on_frame(session, {hello_frame.data() + 4, hello_frame.size() - 4});

  fp::PortLoadMap pred{topo.leaves, topo.uplinks_per_leaf()};
  for (std::uint32_t l = 0; l < topo.leaves; ++l) {
    for (std::uint32_t u = 0; u < topo.uplinks_per_leaf(); ++u) {
      pred.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{(l + 1) % topo.leaves}, 1.0e6);
    }
  }
  const auto pred_frame = daemon::encode_predict(pred);
  (void)engine.on_frame(session, {pred_frame.data() + 4, pred_frame.size() - 4});

  // Pre-encoded healthy frames (one per leaf × 8 iterations) so the loop
  // measures ingest, not encoding.
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint32_t it = 0; it < 8; ++it) {
    for (std::uint32_t l = 0; l < topo.leaves; ++l) {
      fp::IterationRecord rec;
      rec.leaf = net::LeafId{l};
      rec.iteration = net::IterIndex{it};
      rec.bytes.assign(topo.uplinks_per_leaf(), 1.0e6);
      rec.by_src.assign(topo.uplinks_per_leaf(), std::vector<double>(topo.leaves, 0.0));
      for (auto& v : rec.by_src) v[(l + 1) % topo.leaves] = 1.0e6;
      rec.packets = 64;
      frames.push_back(daemon::encode_counters(rec));
    }
  }

  std::size_t i = 0;
  for (auto _ : state) {
    const auto& frame = frames[i];
    i = (i + 1) % frames.size();
    const daemon::EngineReply reply =
        engine.on_frame(session, {frame.data() + 4, frame.size() - 4});
    benchmark::DoNotOptimize(reply.bytes.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["ingest/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DaemonIngestCounters);

}  // namespace

BENCHMARK_MAIN();
