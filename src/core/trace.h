#pragma once

// The trace instrumentation core: event taxonomy, sink interface, and the
// FP_TRACE emission macro. Split out of obs/trace.h so that sim — whose
// event lanes carry the sink pointer the macro reads — can depend on it
// without inverting the module DAG (sim may not include obs; the fplint
// layering rule enforces this). The recorder (FlightRecorder), dump/config
// types, and env plumbing stay in obs/trace.h, which re-exports everything
// here under the obs:: names all instrumented layers use.
//
// Everything is header-only and compile-time gated: in the default build
// FP_TRACE — arguments included — vanishes at preprocessing time, so
// disabled call sites cost nothing and pull in no symbols (asserted by
// the trace_zero_cost_symbols test).

#include <cstddef>
#include <cstdint>

#include "core/time.h"

#if defined(FLOWPULSE_TRACE) && FLOWPULSE_TRACE
#define FP_TRACE_ENABLED 1
#else
#define FP_TRACE_ENABLED 0
#endif

namespace flowpulse::core {

/// Runtime verbosity. kOff keeps even a trace-enabled build silent (the
/// emit path is one pointer test); kEvents records the failure-relevant
/// event kinds; kVerbose adds per-iteration and run-lifecycle markers.
enum class TraceLevel : std::uint8_t {
  kOff = 0,
  kEvents = 1,
  kVerbose = 2,
};

/// Typed trace events. One enumerator per cause the flight recorder can
/// explain; exporters key their naming and pairing rules off this.
enum class EventKind : std::uint8_t {
  kPacketDrop = 0,    ///< net: fault model ate a serialized packet
  kPfcPause = 1,      ///< net: ingress class crossed XOFF, upstream paused
  kPfcResume = 2,     ///< net: ingress class drained below XON
  kRtoFire = 3,       ///< transport: retransmission timer fired
  kDetectorFlag = 4,  ///< flowpulse: port deviation beyond threshold
  kLocalization = 5,  ///< flowpulse: verdict attached to a flagged port
  kMitigation = 6,    ///< ctrl: quarantine / restore / confirm action
  kIteration = 7,     ///< flowpulse: monitor finalized an iteration
  kRunStart = 8,      ///< sim: event loop entered
  kRunStop = 9,       ///< sim: event loop drained / stopped
  kFidelity = 10,     ///< sim: hybrid engine switched fidelity mode
};
constexpr int kNumEventKinds = 11;

/// Verbosity tier an event kind belongs to.
[[nodiscard]] constexpr TraceLevel level_of(EventKind k) {
  switch (k) {
    case EventKind::kIteration:
    case EventKind::kRunStart:
    case EventKind::kRunStop:
      return TraceLevel::kVerbose;
    default:
      return TraceLevel::kEvents;
  }
}

/// Stable lowercase name for exporters and tests.
[[nodiscard]] constexpr const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kPacketDrop:
      return "drop";
    case EventKind::kPfcPause:
      return "pfc_pause";
    case EventKind::kPfcResume:
      return "pfc_resume";
    case EventKind::kRtoFire:
      return "rto";
    case EventKind::kDetectorFlag:
      return "detector_flag";
    case EventKind::kLocalization:
      return "localization";
    case EventKind::kMitigation:
      return "mitigation";
    case EventKind::kIteration:
      return "iteration";
    case EventKind::kRunStart:
      return "run_start";
    case EventKind::kRunStop:
      return "run_stop";
    case EventKind::kFidelity:
      return "fidelity";
  }
  return "unknown";
}

/// One recorded event. Fixed-size POD — recording is a bounded copy into a
/// preallocated ring slot, never an allocation. The per-kind meaning of the
/// generic fields (the event taxonomy) is documented in DESIGN.md
/// "Observability"; `detail` must point at a string with static storage
/// duration (all call sites pass literals or enum-name tables).
struct TraceEvent {
  Time time = Time::zero();
  EventKind kind = EventKind::kPacketDrop;
  std::uint32_t a = 0;       ///< first entity index (leaf / host / in-port)
  std::uint32_t b = 0;       ///< second entity index (uplink / seq / class)
  std::uint64_t value = 0;   ///< bytes / msg id / iteration
  double dval = 0.0;         ///< deviation or other real-valued payload
  const char* detail = "";   ///< static string: reason / verdict / label
  char entity[24] = {};      ///< optional emitter name, bounded copy
};

/// Destination of emitted events. Implementations must make emit() cheap:
/// it sits on simulator hot paths whenever tracing is runtime-enabled.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Level filter, checked by FP_TRACE before building the event.
  [[nodiscard]] bool wants(EventKind k) const { return level_of(k) <= level_; }

  [[nodiscard]] TraceLevel level() const { return level_; }
  void set_level(TraceLevel level) { level_ = level; }

  void emit(EventKind kind, Time t, const char* entity, std::uint32_t a,
            std::uint32_t b, std::uint64_t value, double dval, const char* detail) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.value = value;
    e.dval = dval;
    e.detail = detail;
    for (std::size_t i = 0; i + 1 < sizeof(e.entity) && entity[i] != '\0'; ++i) {
      e.entity[i] = entity[i];
    }
    record(e);
  }

 protected:
  virtual void record(const TraceEvent& e) = 0;

 private:
  TraceLevel level_ = TraceLevel::kOff;
};

}  // namespace flowpulse::core

// FP_TRACE(sim, kind, entity, a, b, value, dval, detail)
//
// `sim` is a sim::Simulator (or anything with trace()/now()); `kind` is a
// bare EventKind enumerator name. In the default build the macro —
// arguments included — vanishes at preprocessing time, so disabled call
// sites cost nothing and pull in no symbols. In a trace-enabled build
// the cost is one pointer test when no sink is installed, plus a level
// check when one is.
#if FP_TRACE_ENABLED
#define FP_TRACE(sim_, kind_, entity_, a_, b_, value_, dval_, detail_)              \
  do {                                                                              \
    ::flowpulse::core::TraceSink* fp_trace_sink_ = (sim_).trace();                  \
    if (fp_trace_sink_ != nullptr &&                                                \
        fp_trace_sink_->wants(::flowpulse::core::EventKind::kind_)) {               \
      fp_trace_sink_->emit(::flowpulse::core::EventKind::kind_, (sim_).now(),       \
                           (entity_), (a_), (b_), (value_), (dval_), (detail_));    \
    }                                                                               \
  } while (0)
#else
#define FP_TRACE(...) ((void)0)
#endif
