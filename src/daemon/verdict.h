#pragma once

// The daemon's verdict plane: fold per-(leaf × iteration) DetectionResults
// into a canonical fabric-level verdict, merge per-shard verdicts, and move
// verdicts over the wire.
//
// Canonical form is what makes sharding deterministic: alerts sort by
// (iteration, leaf, uplink) and suspect links sort by LinkId, so a fabric
// verdict does not depend on ingest interleaving across connections or on
// how leaves were partitioned into shards. Doubles pass through the wire
// bit-exactly, hence M-shard merge == single-shard run, byte for byte.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flowpulse/detector.h"
#include "net/types.h"

namespace flowpulse::daemon {

/// One alerted port of one finalized iteration, as the verdict plane
/// carries it (the detection-side fields of fp::PortAlert, flattened).
struct VerdictAlert {
  net::IterIndex iteration{};
  net::LeafId leaf{};
  net::UplinkIndex uplink{};
  double observed = 0.0;
  double predicted = 0.0;
  double rel_dev = 0.0;
  fp::Localization::Verdict verdict = fp::Localization::Verdict::kUnknown;
  std::vector<net::LeafId> suspect_senders;

  friend bool operator==(const VerdictAlert&, const VerdictAlert&) = default;
};

/// Fabric-level verdict: was a fault flagged, from which iteration, on
/// which links — plus every contributing port alert in canonical order.
///
/// Suspect links follow fp::for_each_suspect_link, the culprit rule the
/// mitigation controller shares.
struct FabricVerdict {
  bool flagged = false;
  net::IterIndex first_faulty_iteration{};
  std::vector<net::LinkId> suspect_links;  ///< sorted, deduplicated
  std::vector<VerdictAlert> alerts;        ///< sorted by (iteration, leaf, uplink)

  friend bool operator==(const FabricVerdict&, const FabricVerdict&) = default;
};

/// Incrementally folds DetectionResults into a verdict, O(alerts) state —
/// clean iterations cost nothing, so the daemon's memory stays flat no
/// matter how long the counter stream runs.
class VerdictAccumulator {
 public:
  void fold(const fp::DetectionResult& result);

  /// Canonicalized verdict over everything folded so far.
  [[nodiscard]] FabricVerdict verdict() const;

  [[nodiscard]] std::uint64_t faulty_results() const { return faulty_results_; }

 private:
  bool flagged_ = false;
  net::IterIndex first_faulty_iteration_{};
  std::uint64_t faulty_results_ = 0;
  std::vector<net::LinkId> suspect_links_;  ///< unsorted, deduplicated
  std::vector<VerdictAlert> alerts_;        ///< fold order
};

/// One-shot fold of a whole result list (the in-simulator side of the
/// daemon-vs-simulator equivalence tests).
[[nodiscard]] FabricVerdict compute_verdict(const std::vector<fp::DetectionResult>& results);

/// Combine per-shard verdicts into the fabric verdict. Shards own disjoint
/// leaf ranges, so merging is a pure union + re-canonicalization; the
/// result is bit-identical to a single shard having seen every leaf.
[[nodiscard]] FabricVerdict merge_verdicts(const std::vector<FabricVerdict>& shards);

/// VERDICT_REPLY frame (length prefix included).
[[nodiscard]] std::vector<std::uint8_t> encode_verdict_reply(const FabricVerdict& v);
/// Body decoder (payload after the opcode byte).
[[nodiscard]] std::optional<FabricVerdict> decode_verdict_reply(
    std::span<const std::uint8_t> body);

}  // namespace flowpulse::daemon
