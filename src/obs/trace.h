#pragma once

// Flight-recorder tracing (compile-time gated, runtime leveled).
//
// Configure with -DFLOWPULSE_TRACE=ON (the audit leg of
// tests/run_sanitized.sh builds with it) to compile typed, timestamped
// trace events into every runtime layer: packet drops, PFC pause/resume,
// RTO firings, detector flags, localization verdicts, and mitigation
// actions. In the default build the FP_TRACE macro expands to nothing —
// its arguments are discarded by the preprocessor, so hot paths reference
// no obs symbols and carry zero cost (asserted by the
// trace_zero_cost_symbols test).
//
// The instrumentation core — TraceLevel/EventKind taxonomy, TraceEvent,
// the TraceSink interface, and the FP_TRACE macro itself — lives in
// core/trace.h so that sim (whose event lanes carry the sink pointer) can
// depend on it without inverting the module DAG. This header re-exports
// those names under obs:: and adds what only the observability layer
// needs: the flight recorder, dump/config types, and env plumbing.
//
// In a trace-enabled build, events flow into the sim::Simulator's
// installed TraceSink. The stock sink is obs::FlightRecorder, a
// bounded ring buffer per simulation: cheap enough to leave always on,
// and when something goes wrong (a detector flag, a mitigation action, an
// audit invariant failure) the last N events are the causal window that
// explains it. exp::Scenario wires one up automatically when the runtime
// level is set (ScenarioConfig.trace or the FLOWPULSE_TRACE env var) and
// snapshots it on every flagged iteration. Exporters in obs/export.h
// render snapshots as chrome://tracing JSON or a text timeline.
//
// Everything in this header is header-only on purpose: instrumented
// layers (net, transport, flowpulse, ctrl) gain no link dependency.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/trace.h"

namespace flowpulse::obs {

// Historical spellings: the taxonomy and sink interface moved to
// core/trace.h; every existing obs::X use keeps compiling.
using core::EventKind;
using core::event_kind_name;
using core::kNumEventKinds;
using core::level_of;
using core::TraceEvent;
using core::TraceLevel;
using core::TraceSink;

/// The bounded in-memory flight recorder: a ring buffer of the last
/// `capacity` events. Overflow silently overwrites the oldest event but is
/// observable (dropped()); recording never allocates after construction.
/// One per simulation — parallel trials each own theirs, so recording
/// stays as deterministic as the simulation feeding it.
class FlightRecorder final : public TraceSink {
 public:
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Events ever emitted at an admitted level (recorded or overwritten).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Events lost to ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::size_t size() const {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_) : ring_.size();
  }

  /// Chronological copy of the retained window (oldest first).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    const std::size_t start = total_ > ring_.size()
                                  ? static_cast<std::size_t>(total_ % ring_.size())
                                  : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

  void clear() { total_ = 0; }

 protected:
  void record(const TraceEvent& e) override {
    ring_[static_cast<std::size_t>(total_ % ring_.size())] = e;
    ++total_;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;
};

/// One automatic flight-recorder dump: the retained event window at the
/// moment something was flagged, plus why it was taken.
struct TraceDump {
  std::string reason;            ///< e.g. "detector-flag leaf3 iter2"
  core::Time at = core::Time::zero();
  std::uint32_t iteration = 0;
  std::uint64_t dropped = 0;     ///< ring overflow before the snapshot
  std::vector<TraceEvent> events;
};

/// Scenario-level tracing knobs (honored only in trace-enabled builds).
struct TraceConfig {
  /// kOff defers to the FLOWPULSE_TRACE environment variable (env_level()).
  TraceLevel level = TraceLevel::kOff;
  std::size_t capacity = FlightRecorder::kDefaultCapacity;
};

/// Runtime opt-in for trace-enabled builds: FLOWPULSE_TRACE=1|on|events →
/// kEvents, 2|verbose → kVerbose, anything else → kOff.
[[nodiscard]] inline TraceLevel env_level() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup, before
  // any worker thread exists; nothing in the process calls setenv
  const char* s = std::getenv("FLOWPULSE_TRACE");
  if (s == nullptr) return TraceLevel::kOff;
  const std::string v{s};
  if (v == "1" || v == "on" || v == "events") return TraceLevel::kEvents;
  if (v == "2" || v == "verbose") return TraceLevel::kVerbose;
  return TraceLevel::kOff;
}

}  // namespace flowpulse::obs
