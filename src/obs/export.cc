#include "obs/export.h"

#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/json.h"

namespace flowpulse::obs {

using core::event_kind_name;
using core::EventKind;
using core::TraceEvent;

namespace {

const char* category_of(EventKind k) {
  switch (k) {
    case EventKind::kPacketDrop:
    case EventKind::kPfcPause:
    case EventKind::kPfcResume:
      return "net";
    case EventKind::kRtoFire:
      return "transport";
    case EventKind::kDetectorFlag:
    case EventKind::kLocalization:
    case EventKind::kIteration:
      return "flowpulse";
    case EventKind::kMitigation:
      return "ctrl";
    case EventKind::kRunStart:
    case EventKind::kRunStop:
    case EventKind::kFidelity:
      return "sim";
  }
  return "obs";
}

void append_args(std::ostringstream& os, const TraceEvent& e) {
  os << "\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << ",\"value\":" << e.value;
  if (e.dval != 0.0) {
    // JSON has no inf/nan literals; a detector flag on a predicted-silent
    // port carries dval = +inf. Quote non-finite values instead.
    os << ",\"dval\":";
    if (std::isfinite(e.dval)) {
      os << e.dval;
    } else {
      os << json_quote(e.dval > 0.0 ? "inf" : e.dval < 0.0 ? "-inf" : "nan");
    }
  }
  if (e.detail[0] != '\0') os << ",\"detail\":" << json_quote(e.detail);
  os << '}';
}

}  // namespace

std::string entity_label(const TraceEvent& e) {
  if (e.entity[0] != '\0') return std::string{e.entity};
  std::ostringstream os;
  switch (e.kind) {
    case EventKind::kRtoFire:
      os << "host" << e.a;
      break;
    case EventKind::kDetectorFlag:
    case EventKind::kLocalization:
    case EventKind::kMitigation:
      os << "leaf" << e.a << ".up" << e.b;
      break;
    case EventKind::kIteration:
      os << "leaf" << e.a;
      break;
    case EventKind::kRunStart:
    case EventKind::kRunStop:
    case EventKind::kFidelity:
      os << "sim";
      break;
    default:
      os << "e" << e.a << "." << e.b;
      break;
  }
  return os.str();
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << std::setprecision(15);

  // Stable track ids: one tid per entity label, in lexicographic order.
  std::map<std::string, int> tids;
  for (const TraceEvent& e : events) tids.emplace(entity_label(e), 0);
  int next_tid = 1;
  for (auto& [label, tid] : tids) tid = next_tid++;

  // Pair each PFC pause with the next resume on the same (entity, port,
  // class); an unpaired pause stretches to the end of the window — in the
  // viewer a pause that never resumed is a slice that never closes.
  core::Time window_end = core::Time::zero();
  for (const TraceEvent& e : events) {
    if (e.time > window_end) window_end = e.time;
  }
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>, std::size_t> open_pause;
  std::vector<core::Time> pause_end(events.size(), core::Time::zero());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    const auto key = std::make_tuple(entity_label(e), e.a, e.b);
    if (e.kind == EventKind::kPfcPause) {
      pause_end[i] = window_end;  // until proven resumed
      open_pause[key] = i;
    } else if (e.kind == EventKind::kPfcResume) {
      const auto it = open_pause.find(key);
      if (it != open_pause.end()) {
        pause_end[it->second] = e.time;
        open_pause.erase(it);
      }
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  for (const auto& [label, tid] : tids) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":" << json_quote(label) << "}}";
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.kind == EventKind::kPfcResume) continue;  // folded into its pause
    const std::string label = entity_label(e);
    sep();
    os << "{\"name\":" << json_quote(event_kind_name(e.kind))
       << ",\"cat\":" << json_quote(category_of(e.kind)) << ",\"pid\":0,\"tid\":"
       << tids[label] << ",\"ts\":" << e.time.us() << ',';
    if (e.kind == EventKind::kPfcPause) {
      const double dur = (pause_end[i] - e.time).us();
      os << "\"ph\":\"X\",\"dur\":" << (dur < 0.0 ? 0.0 : dur) << ',';
    } else {
      os << "\"ph\":\"i\",\"s\":\"t\",";
    }
    append_args(os, e);
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string text_timeline(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  for (const TraceEvent& e : events) {
    os << std::setw(14) << e.time.us() << "us  " << std::left << std::setw(16)
       << entity_label(e) << ' ' << std::setw(14) << event_kind_name(e.kind) << std::right
       << " a=" << e.a << " b=" << e.b << " value=" << e.value;
    if (e.dval != 0.0) os << " dval=" << e.dval;
    if (e.detail[0] != '\0') os << ' ' << e.detail;
    os << '\n';
  }
  return os.str();
}

}  // namespace flowpulse::obs
