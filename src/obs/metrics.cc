#include "obs/metrics.h"

#include <cmath>
#include <map>
#include <sstream>
#include <tuple>

#include "obs/export.h"

namespace flowpulse::obs {

using core::event_kind_name;
using core::EventKind;
using core::kNumEventKinds;
using core::TraceEvent;

void Histogram::add(double v) {
  // The registry must swallow anything the trace carries: detector rel_dev
  // is +inf for a port predicted silent but carrying traffic, and
  // ilogb(inf) == INT_MAX would index far outside buckets_. Clamp into the
  // last bucket's floor, which also keeps the running sum (and the JSON
  // summary) finite.
  if (std::isnan(v) || v < 0.0) v = 0.0;
  const double ceiling = std::ldexp(1.0, kBuckets - 2);
  if (v >= ceiling) v = ceiling;
  int b = 0;
  if (v >= 1.0) b = std::ilogb(v) + 1;
  ++buckets_[static_cast<std::size_t>(b)];
  if (count_ == 0 || v < min_) min_ = v;
  if (v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

double Histogram::quantile_bound(double q) const {
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (static_cast<double>(seen) >= target) {
      return i == 0 ? 1.0 : std::ldexp(1.0, i);
    }
  }
  return max_;
}

std::string Histogram::to_json() const {
  std::ostringstream os;
  os << "{\"count\":" << count_ << ",\"min\":" << min() << ",\"mean\":" << mean()
     << ",\"max\":" << max_ << ",\"p99\":" << quantile_bound(0.99) << "}";
  return os.str();
}

TraceMetrics TraceMetrics::from_events(const std::vector<TraceEvent>& events) {
  TraceMetrics m;
  // Open PFC pauses by (entity, port, class); see chrome_trace_json pairing.
  std::map<std::tuple<std::string, std::uint32_t, std::uint32_t>, core::Time> open_pause;
  for (const TraceEvent& e : events) {
    ++m.by_kind[static_cast<std::size_t>(e.kind)];
    switch (e.kind) {
      case EventKind::kPacketDrop:
        m.drop_bytes.add(static_cast<double>(e.value));
        break;
      case EventKind::kPfcPause:
        m.queue_bytes_at_pause.add(static_cast<double>(e.value));
        open_pause[std::make_tuple(entity_label(e), e.a, e.b)] = e.time;
        break;
      case EventKind::kPfcResume: {
        const auto it = open_pause.find(std::make_tuple(entity_label(e), e.a, e.b));
        if (it != open_pause.end()) {
          m.pause_us.add((e.time - it->second).us());
          open_pause.erase(it);
        }
        break;
      }
      case EventKind::kRtoFire:
        ++m.retransmits;
        break;
      case EventKind::kDetectorFlag:
        m.detector_rel_dev.add(e.dval);
        break;
      default:
        break;
    }
  }
  return m;
}

std::string TraceMetrics::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (int k = 0; k < kNumEventKinds; ++k) {
    if (k) os << ',';
    os << '"' << event_kind_name(static_cast<EventKind>(k))
       << "\":" << by_kind[static_cast<std::size_t>(k)];
  }
  os << "},\"retransmits\":" << retransmits
     << ",\"drop_bytes\":" << drop_bytes.to_json()
     << ",\"pause_us\":" << pause_us.to_json()
     << ",\"queue_bytes_at_pause\":" << queue_bytes_at_pause.to_json()
     << ",\"detector_rel_dev\":" << detector_rel_dev.to_json() << "}";
  return os.str();
}

}  // namespace flowpulse::obs
