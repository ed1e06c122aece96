#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/types.h"

namespace flowpulse::fp {

/// Expected (or observed) traffic on one leaf ingress port from a spine
/// during one collective iteration: total wire bytes plus the breakdown by
/// sending leaf, which is what localization (§5.3, Fig. 4) compares.
struct PortLoad {
  double total = 0.0;
  std::vector<double> by_src_leaf;  ///< indexed by sender LeafId

  explicit PortLoad(std::uint32_t leaves = 0) : by_src_leaf(leaves, 0.0) {}
};

/// Per-link load model output: one PortLoad per (leaf, uplink) — i.e. per
/// spine→leaf downstream port in the fabric (virtual spines included).
class PortLoadMap {
 public:
  /// 2-level fabric: the rows are the leaves, which are also the senders.
  PortLoadMap(std::uint32_t leaves, std::uint32_t uplinks)
      : PortLoadMap{leaves, uplinks, leaves} {}

  /// `rows` monitored switches (leaves() reports this) of `uplinks` ports,
  /// each port's by_src_leaf sized for `senders` sender leaves — e.g. a
  /// three-level fabric's pod-spine tier, whose senders are all its leaves.
  PortLoadMap(std::uint32_t rows, std::uint32_t uplinks, std::uint32_t senders)
      : leaves_{rows},
        uplinks_{uplinks},
        loads_(static_cast<std::size_t>(rows) * uplinks, PortLoad{senders}) {}

  [[nodiscard]] PortLoad& at(net::LeafId leaf, net::UplinkIndex u) {
    return loads_[static_cast<std::size_t>(leaf.v()) * uplinks_ + u.v()];
  }
  [[nodiscard]] const PortLoad& at(net::LeafId leaf, net::UplinkIndex u) const {
    return loads_[static_cast<std::size_t>(leaf.v()) * uplinks_ + u.v()];
  }

  /// Row `leaf`'s PortLoads, one per port in port order.
  [[nodiscard]] std::span<const PortLoad> row(net::LeafId leaf) const {
    return std::span<const PortLoad>{loads_}.subspan(
        static_cast<std::size_t>(leaf.v()) * uplinks_, uplinks_);
  }

  void add(net::LeafId dst_leaf, net::UplinkIndex u, net::LeafId src_leaf, double bytes) {
    PortLoad& load = at(dst_leaf, u);
    load.total += bytes;
    load.by_src_leaf[src_leaf.v()] += bytes;
  }

  [[nodiscard]] std::uint32_t leaves() const { return leaves_; }
  [[nodiscard]] std::uint32_t uplinks() const { return uplinks_; }

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (const PortLoad& l : loads_) t += l.total;
    return t;
  }

 private:
  std::uint32_t leaves_;
  std::uint32_t uplinks_;
  std::vector<PortLoad> loads_;
};

}  // namespace flowpulse::fp
