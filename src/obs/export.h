#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"

namespace flowpulse::obs {

/// Render events as a Chrome Trace Event Format JSON object — load the
/// file via chrome://tracing (or ui.perfetto.dev). Instant events render
/// as markers on one track per entity; PFC pause/resume pairs render as
/// duration slices, so a stuck pause is visually a bar that never ends.
/// Timestamps are microseconds of simulated time.
[[nodiscard]] std::string chrome_trace_json(const std::vector<core::TraceEvent>& events);

/// Render events as a compact fixed-width text timeline (one line per
/// event, chronological) — the format flight-recorder dumps print to
/// stderr on audit failure.
[[nodiscard]] std::string text_timeline(const std::vector<core::TraceEvent>& events);

/// Entity label for an event: the recorded name when present, otherwise a
/// stable synthesized one ("leaf3.up1", "host4", "sim") from the indices.
[[nodiscard]] std::string entity_label(const core::TraceEvent& e);

}  // namespace flowpulse::obs
