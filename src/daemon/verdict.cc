#include "daemon/verdict.h"

#include <algorithm>

#include "daemon/protocol.h"

namespace flowpulse::daemon {

namespace {

bool alert_order(const VerdictAlert& a, const VerdictAlert& b) {
  if (a.iteration != b.iteration) return a.iteration < b.iteration;
  if (a.leaf != b.leaf) return a.leaf < b.leaf;
  return a.uplink < b.uplink;
}

}  // namespace

void VerdictAccumulator::fold(const fp::DetectionResult& result) {
  if (!result.faulty()) return;
  ++faulty_results_;
  if (!flagged_ || result.iteration < first_faulty_iteration_) {
    first_faulty_iteration_ = result.iteration;
  }
  flagged_ = true;
  for (const fp::PortAlert& a : result.alerts) {
    VerdictAlert va;
    va.iteration = result.iteration;
    va.leaf = result.leaf;
    va.uplink = a.uplink;
    va.observed = a.observed;
    va.predicted = a.predicted;
    va.rel_dev = a.rel_dev;
    va.verdict = a.localization.verdict;
    va.suspect_senders = a.localization.suspect_senders;
    alerts_.push_back(std::move(va));
    fp::for_each_suspect_link(result.leaf, a, [this](net::LinkId key) {
      if (std::find(suspect_links_.begin(), suspect_links_.end(), key) ==
          suspect_links_.end()) {
        suspect_links_.push_back(key);
      }
    });
  }
}

FabricVerdict VerdictAccumulator::verdict() const {
  FabricVerdict v;
  v.flagged = flagged_;
  v.first_faulty_iteration = first_faulty_iteration_;
  v.suspect_links = suspect_links_;
  std::sort(v.suspect_links.begin(), v.suspect_links.end());
  v.alerts = alerts_;
  std::sort(v.alerts.begin(), v.alerts.end(), alert_order);
  return v;
}

FabricVerdict compute_verdict(const std::vector<fp::DetectionResult>& results) {
  VerdictAccumulator acc;
  for (const fp::DetectionResult& r : results) acc.fold(r);
  return acc.verdict();
}

FabricVerdict merge_verdicts(const std::vector<FabricVerdict>& shards) {
  FabricVerdict merged;
  for (const FabricVerdict& s : shards) {
    if (s.flagged &&
        (!merged.flagged || s.first_faulty_iteration < merged.first_faulty_iteration)) {
      merged.first_faulty_iteration = s.first_faulty_iteration;
    }
    merged.flagged = merged.flagged || s.flagged;
    merged.suspect_links.insert(merged.suspect_links.end(), s.suspect_links.begin(),
                                s.suspect_links.end());
    merged.alerts.insert(merged.alerts.end(), s.alerts.begin(), s.alerts.end());
  }
  std::sort(merged.suspect_links.begin(), merged.suspect_links.end());
  merged.suspect_links.erase(
      std::unique(merged.suspect_links.begin(), merged.suspect_links.end()),
      merged.suspect_links.end());
  std::sort(merged.alerts.begin(), merged.alerts.end(), alert_order);
  return merged;
}

std::vector<std::uint8_t> encode_verdict_reply(const FabricVerdict& v) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Op::kVerdictReply));
  w.u8(v.flagged ? 1 : 0);
  w.u32(v.first_faulty_iteration.v());
  w.u32(static_cast<std::uint32_t>(v.suspect_links.size()));
  for (const net::LinkId link : v.suspect_links) w.u64(link.v());
  w.u32(static_cast<std::uint32_t>(v.alerts.size()));
  for (const VerdictAlert& a : v.alerts) {
    w.u32(a.iteration.v());
    w.u32(a.leaf.v());
    w.u32(a.uplink.v());
    w.f64(a.observed);
    w.f64(a.predicted);
    w.f64(a.rel_dev);
    w.u8(static_cast<std::uint8_t>(a.verdict));
    w.u32(static_cast<std::uint32_t>(a.suspect_senders.size()));
    for (const net::LeafId s : a.suspect_senders) w.u32(s.v());
  }
  return frame_payload(w.buf());
}

std::optional<FabricVerdict> decode_verdict_reply(std::span<const std::uint8_t> body) {
  Reader r{body};
  FabricVerdict v;
  v.flagged = r.u8() != 0;
  v.first_faulty_iteration = net::IterIndex{r.u32()};
  const std::uint32_t nlinks = r.u32();
  if (!r.ok() || static_cast<std::uint64_t>(nlinks) * 8 > r.remaining()) return std::nullopt;
  v.suspect_links.reserve(nlinks);
  for (std::uint32_t i = 0; i < nlinks; ++i) v.suspect_links.emplace_back(r.u64());
  const std::uint32_t nalerts = r.u32();
  // Each alert is at least 41 bytes; reject counts the body cannot hold.
  if (!r.ok() || static_cast<std::uint64_t>(nalerts) * 41 > r.remaining()) return std::nullopt;
  v.alerts.reserve(nalerts);
  for (std::uint32_t i = 0; i < nalerts; ++i) {
    VerdictAlert a;
    a.iteration = net::IterIndex{r.u32()};
    a.leaf = net::LeafId{r.u32()};
    a.uplink = net::UplinkIndex{r.u32()};
    a.observed = r.f64();
    a.predicted = r.f64();
    a.rel_dev = r.f64();
    a.verdict = static_cast<fp::Localization::Verdict>(r.u8());
    const std::uint32_t nsenders = r.u32();
    if (!r.ok() || static_cast<std::uint64_t>(nsenders) * 4 > r.remaining()) {
      return std::nullopt;
    }
    a.suspect_senders.reserve(nsenders);
    for (std::uint32_t s = 0; s < nsenders; ++s) a.suspect_senders.emplace_back(r.u32());
    v.alerts.push_back(std::move(a));
  }
  if (!r.done()) return std::nullopt;
  return v;
}

}  // namespace flowpulse::daemon
