#pragma once

#include <cstdint>
#include <vector>

#include "net/types.h"

namespace flowpulse::net {

/// Converged control-plane view of *known* link failures, shared by every
/// switch (as a routing protocol / fabric manager would distribute it).
///
/// A known-failed (leaf, uplink) pair removes that uplink ("virtual spine",
/// i.e. spine × parallel-lane) from the valid set of BOTH the affected leaf
/// (it cannot send up that link) and every leaf sending TOWARD the affected
/// leaf (the spine cannot deliver down that lane). This matches the paper's
/// analytical model: a src→dst pair with demand d and f failed spines
/// adjacent to either endpoint spreads d over the remaining (s − f) spines.
///
/// Silent faults are deliberately NOT represented here — the data plane
/// keeps spraying onto them; that is what makes them silent.
class RoutingState {
 public:
  RoutingState(std::uint32_t leaves, std::uint32_t uplinks_per_leaf);

  void set_known_failed(LeafId leaf, UplinkIndex uplink, bool failed = true);
  [[nodiscard]] bool known_failed(LeafId leaf, UplinkIndex uplink) const;

  /// Number of known-failed uplinks adjacent to `leaf`.
  [[nodiscard]] std::uint32_t known_failed_count(LeafId leaf) const;

  /// Valid uplinks for traffic from `src_leaf` toward `dst_leaf`: uplinks
  /// not known-failed at either end. Cached; the reference is invalidated
  /// by the next set_known_failed() call.
  [[nodiscard]] const std::vector<UplinkIndex>& valid_uplinks(LeafId src_leaf,
                                                              LeafId dst_leaf) const;

  [[nodiscard]] std::uint32_t leaves() const { return leaves_; }
  [[nodiscard]] std::uint32_t uplinks_per_leaf() const { return uplinks_; }

 private:
  std::uint32_t leaves_;
  std::uint32_t uplinks_;
  std::vector<bool> failed_;  // leaves_ × uplinks_

  struct CacheEntry {
    std::uint64_t version = ~0ull;
    std::vector<UplinkIndex> uplinks;
  };
  std::uint64_t version_ = 0;
  // fplint: ok(mutable-member): per-instance memoization keyed by
  // version_ — rebuilt deterministically from routing state, never shared
  // across RoutingState objects (each lane owns its fabric and routing)
  mutable std::vector<CacheEntry> cache_;  // leaves_ × leaves_
};

}  // namespace flowpulse::net
