#include "flowpulse/detector.h"

namespace flowpulse::fp {

Localization localize(const IterationRecord& record, const PortLoad& predicted,
                      net::UplinkIndex uplink, double threshold) {
  Localization loc;
  std::uint32_t senders_expected = 0;
  std::uint32_t senders_short = 0;
  const std::uint32_t num_src = static_cast<std::uint32_t>(predicted.by_src_leaf.size());
  for (const net::LeafId src : core::ids<net::LeafId>(num_src)) {
    const double pred = predicted.by_src_leaf[src.v()];
    if (pred <= 0.0) continue;
    ++senders_expected;
    const double obs = record.by_src[uplink.v()][src.v()];
    if (pred - obs > threshold * pred) {
      ++senders_short;
      loc.suspect_senders.push_back(src);
    }
  }
  if (senders_expected == 0 || senders_short == 0) {
    loc.verdict = Localization::Verdict::kUnknown;
    loc.suspect_senders.clear();
    return loc;
  }
  // The paper's rule is "all senders short → local link; one sender short →
  // that sender's remote link". With finite per-sender volumes the
  // classification is statistical, so we use robust fractions: a clear
  // majority of senders short blames the shared local link, a clear
  // minority blames the senders' own links, and the ambiguous middle stays
  // unknown rather than misdirecting the operator.
  const double frac =
      static_cast<double>(senders_short) / static_cast<double>(senders_expected);
  if (senders_expected == 1 || frac >= 0.7) {
    loc.verdict = Localization::Verdict::kLocalLink;
    loc.suspect_senders.clear();
  } else if (frac <= 0.5) {
    // Covers the paper's Fig. 4 exactly: two senders, one short → remote.
    loc.verdict = Localization::Verdict::kRemoteLinks;
  } else {
    loc.verdict = Localization::Verdict::kUnknown;
    loc.suspect_senders.clear();
  }
  return loc;
}

}  // namespace flowpulse::fp
