#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "net/switch.h"
#include "net/topology_info.h"
#include "net/types.h"
#include "sim/audit.h"

namespace flowpulse::fp {

/// Everything one monitored switch measured about one collective iteration.
struct IterationRecord {
  net::LeafId leaf{};  ///< monitor id (leaf id, or pod-spine id at level 2)
  net::IterIndex iteration{};
  std::vector<double> bytes;                  ///< per monitored port, wire bytes
  std::vector<std::vector<double>> by_src;    ///< [port][src leaf] wire bytes
  std::uint64_t packets = 0;
};

/// In-switch measurement (paper §5.1): counts the wire bytes of tagged
/// collective data packets arriving on each monitored ingress port,
/// delimiting iterations by the iteration number embedded in flow_id.
/// The previous iteration is finalized when the first packet of the next
/// one appears — the switch is oblivious to stragglers because synchronous
/// training guarantees iteration i's traffic finished before i+1 starts.
///
/// Per-sender byte counts (by source leaf, derivable from the packet source
/// address) feed localization.
///
/// The same monitor deploys at leaf switches (ingress from spines — the
/// paper's design) and, for three-level topologies, at pod spines (ingress
/// from cores — the paper's §7 extension).
class PortMonitor {
 public:
  using FinalizeHook = std::function<void(const IterationRecord&)>;

  /// Leaf-switch deployment on a 2-level fat tree.
  PortMonitor(net::LeafId leaf, const net::TopologyInfo& info, std::uint16_t job = 0)
      : PortMonitor(leaf.v(), info.uplinks_per_leaf(), info.leaves, info.hosts_per_leaf, job) {
  }

  /// Generic deployment: `id` names the monitored switch, `ports` is how
  /// many ingress ports it watches, senders are attributed to leaves via
  /// src_host / hosts_per_leaf over `leaves` leaves.
  PortMonitor(std::uint32_t id, std::uint32_t ports, std::uint32_t leaves,
              std::uint32_t hosts_per_leaf, std::uint16_t job = 0)
      : id_{id}, ports_{ports}, leaves_{leaves}, hosts_per_leaf_{hosts_per_leaf}, job_{job} {
#if FP_AUDIT_ENABLED
    audit_bytes_.assign(ports_, 0);
#endif
  }

  /// Install this monitor on a leaf switch's spine-ingress tap.
  void attach(net::LeafSwitch& sw) {
    sw.set_spine_ingress_hook(
        [this](net::UplinkIndex u, const net::Packet& p) { record(u, p); });
  }

  /// Direct feed (for unit tests, or any switch exposing an ingress tap).
  void record(net::UplinkIndex port, const net::Packet& p);

  /// Finalize the currently accumulating iteration (end of training run).
  void flush();

  void set_finalize_hook(FinalizeHook hook) { finalize_hook_ = std::move(hook); }

  [[nodiscard]] const std::vector<IterationRecord>& history() const { return history_; }
  [[nodiscard]] net::LeafId leaf() const { return net::LeafId{id_}; }
  [[nodiscard]] bool accumulating() const { return current_.has_value(); }

#if FP_AUDIT_ENABLED
  /// Exact wire bytes this monitor counted on `port` across the whole run
  /// (all iterations plus the one still accumulating) — the monitor-side
  /// ledger for monitor-vs-switch reconciliation.
  [[nodiscard]] std::uint64_t audit_bytes(net::UplinkIndex port) const {
    return audit_bytes_[port.v()];
  }
#endif

 private:
  void begin_iteration(net::IterIndex iteration);
  void finalize();

  std::uint32_t id_;
  std::uint32_t ports_;
  std::uint32_t leaves_;
  std::uint32_t hosts_per_leaf_;
  std::uint16_t job_;
  std::optional<net::IterIndex> current_;
  IterationRecord accum_;
  std::vector<IterationRecord> history_;
  FinalizeHook finalize_hook_;
#if FP_AUDIT_ENABLED
  std::vector<std::uint64_t> audit_bytes_;
#endif
};

/// Every record `monitors` finalized since the previous call, in canonical
/// (iteration, monitor id) order; `taken[m]` counts monitor m's records
/// already returned and is advanced. Each history is iteration-ordered, and
/// the merge does not depend on which event lane finalized first, so serial
/// and laned runs see the same records in the same order.
[[nodiscard]] std::vector<const IterationRecord*> take_new_records(
    const std::vector<std::unique_ptr<PortMonitor>>& monitors, std::vector<std::size_t>& taken);

}  // namespace flowpulse::fp
