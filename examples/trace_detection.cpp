// trace_detection: watch a silent fault through the flight recorder.
//
// The same closed-loop story as self_healing — a gray downlink appears
// mid-run, FlowPulse flags it, the controller quarantines — but told from
// the observability layer: every packet drop, PFC pause, RTO firing,
// detector flag, localization verdict, and mitigation action lands in the
// bounded in-memory flight recorder, and the run ends by exporting the
// retained window as chrome://tracing JSON plus a text timeline and the
// counter/histogram registry. The workload is AllToAll so the incast also
// exercises the lossless fabric's PFC machinery (ring traffic never
// queues enough to pause).
//
// Tracing is decided at run time: this scenario sets its level to events.
// A run that sets no level (and no FLOWPULSE_TRACE environment variable)
// records nothing, and each instrumented call site costs it one pointer
// test.
//
//   $ ./trace_detection [out.json]
#include <iostream>
#include <string>

#include "exp/report.h"
#include "exp/scenario.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace flowpulse;

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "trace_detection.json";

  std::cout << "FlowPulse traced run: 8x4 fat tree, AllToAll, 8 MB/iter\n"
               "gray downlink (15% drop) on leaf 5 / uplink 1 at t=150 us, mitigation on,\n"
               "flight recorder at level=events\n\n";

  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{8, 4, 1, 1};
  cfg.collective = collective::CollectiveKind::kAllToAll;
  cfg.collective_bytes = core::Bytes{8ull << 20};
  cfg.iterations = 12;
  cfg.seed = 1;
  // Tight PFC thresholds (a couple of packets) so the AllToAll incast
  // shows the lossless fabric's pause machinery in the trace.
  cfg.fabric.pfc.xoff_bytes = core::Bytes{9 * 1024};
  cfg.fabric.pfc.xon_bytes = core::Bytes{4 * 1024};

  exp::NewFault f;
  f.leaf = net::LeafId{5};
  f.uplink = net::UplinkIndex{1};
  f.where = exp::NewFault::Where::kDownlink;
  f.spec = net::FaultSpec::random_drop(0.15, sim::Time::microseconds(150));
  cfg.new_faults.push_back(f);

  // AllToAll carries per-(sender, port) quantization noise; 5% keeps the
  // detector quiet until the gray link's real shortfall shows up.
  cfg.flowpulse.threshold = 0.05;
  cfg.mitigation.enabled = true;
  cfg.mitigation.debounce_iterations = 2;
  cfg.mitigation.settle_iterations = 1;
  cfg.mitigation.probation_iterations = 2;

  cfg.trace.level = core::TraceLevel::kEvents;
  cfg.trace.capacity = 1 << 16;

  exp::Scenario s{cfg};
  const exp::ScenarioResult r = s.run();

  // The automatic dumps Scenario took the moment something was flagged.
  std::cout << "automatic flight-recorder dumps (" << r.trace_dumps.size() << "):\n";
  for (const obs::TraceDump& d : r.trace_dumps) {
    std::cout << "  @" << d.at.us() << "us  " << d.reason << "  (" << d.events.size()
              << " events retained, " << d.dropped << " lost to ring wrap)\n";
  }

  // The tail of the final retained window, as the text timeline the audit
  // dump hook prints on invariant failure.
  const std::vector<core::TraceEvent>& window = r.trace_events;
  const std::size_t tail = window.size() < 20 ? 0 : window.size() - 20;
  std::cout << "\nlast " << (window.size() - tail) << " of " << window.size()
            << " recorded events (" << r.trace_dropped << " lost to ring wrap):\n"
            << obs::text_timeline({window.begin() + static_cast<std::ptrdiff_t>(tail),
                                   window.end()});

  // The counter/histogram registry the window reduces to.
  const obs::TraceMetrics m = obs::TraceMetrics::from_events(window);
  std::cout << "\ncounters: drops=" << m.count(core::EventKind::kPacketDrop)
            << " pfc_pauses=" << m.count(core::EventKind::kPfcPause)
            << " rto=" << m.retransmits
            << " detector_flags=" << m.count(core::EventKind::kDetectorFlag)
            << " mitigations=" << m.count(core::EventKind::kMitigation) << "\n"
            << "pause_us: " << m.pause_us.to_json() << "\n"
            << "drop_bytes: " << m.drop_bytes.to_json() << "\n";

  if (exp::write_file(out_path, obs::chrome_trace_json(window))) {
    std::cout << "\nwrote " << out_path
              << " — load it in chrome://tracing or ui.perfetto.dev: one track\n"
                 "per port/host/link, detector flags and mitigation actions as\n"
                 "instants, PFC pauses as duration slices.\n";
  } else {
    std::cout << "\nfailed to write " << out_path << "\n";
    return 1;
  }
  return 0;
}
