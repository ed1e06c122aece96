#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "net/types.h"

namespace flowpulse::fp {

/// Where the localizer places a detected fault (paper §5.3, Fig. 4).
struct Localization {
  enum class Verdict : std::uint8_t {
    kLocalLink,    ///< every sender's traffic on the port is short → the
                   ///< local spine→leaf link is at fault
    kRemoteLinks,  ///< only some senders are short → their leaf↔spine links
    kUnknown,      ///< no per-sender signal (e.g. surplus-only deviation)
  };
  Verdict verdict = Verdict::kUnknown;
  /// For kRemoteLinks: the sender leaves whose traffic is missing.
  std::vector<net::LeafId> suspect_senders;
};

/// One port its row's rule alerted on (RowBaseline).
struct PortAlert {
  net::UplinkIndex uplink{};
  double observed = 0.0;
  double predicted = 0.0;
  double rel_dev = 0.0;
  Localization localization;
};

/// Result of one finalized iteration at one leaf.
struct DetectionResult {
  net::LeafId leaf{};
  net::IterIndex iteration{};
  double max_rel_dev = 0.0;  ///< across all ports (for threshold sweeps)
  std::vector<PortAlert> alerts;
  /// Why the iteration raised no alert without being judged, as a static
  /// string ("learning", "re-learning"); nullptr when it was judged.
  const char* unjudged = nullptr;
  [[nodiscard]] bool faulty() const { return !alerts.empty(); }
};

/// Relative deviation between an observation and a prediction. A port
/// predicted silent but carrying traffic deviates infinitely.
[[nodiscard]] inline double relative_deviation(double observed, double predicted) {
  if (predicted <= 0.0) {
    return observed > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return (observed > predicted ? observed - predicted : predicted - observed) / predicted;
}

/// Per-sender comparison on one alerted port: decides local vs remote link.
/// A sender counts as affected when its contribution falls short of its
/// prediction by more than `threshold` (relative).
[[nodiscard]] Localization localize(const IterationRecord& record, const PortLoad& predicted,
                                    net::UplinkIndex uplink, double threshold);

/// The culprit rule: calls `visit(net::LinkId)` for each link one port
/// alert at `leaf` blames, allocating nothing. A shortfall localized
/// kLocalLink or kUnknown blames (leaf, uplink). kRemoteLinks blames
/// (sender, uplink) for each suspect sender: the missing traffic died on
/// the sender's own leaf↔spine link of the same virtual spine (the uplink
/// index is global across leaves). A surplus blames nothing — it is a
/// shortfall's traffic resurfacing elsewhere (retransmissions).
template <typename Visit>
void for_each_suspect_link(net::LeafId leaf, const PortAlert& alert, Visit&& visit) {
  if (alert.observed >= alert.predicted) return;
  switch (alert.localization.verdict) {
    case Localization::Verdict::kLocalLink:
    case Localization::Verdict::kUnknown:
      visit(net::LinkId::of(leaf, alert.uplink));
      return;
    case Localization::Verdict::kRemoteLinks:
      for (const net::LeafId sender : alert.localization.suspect_senders) {
        visit(net::LinkId::of(sender, alert.uplink));
      }
      return;
  }
}

}  // namespace flowpulse::fp
