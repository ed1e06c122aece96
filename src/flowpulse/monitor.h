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

/// Shape of one monitored tier: `rows` switches each watch `ports` ingress
/// ports and attribute every packet to one of `senders` sending switches,
/// sender = src host / hosts_per_sender.
struct Tier {
  std::uint32_t rows = 0;
  std::uint32_t ports = 0;
  std::uint32_t senders = 0;
  std::uint32_t hosts_per_sender = 1;

  /// A 2-level fabric's leaves, which watch their uplinks and also send.
  [[nodiscard]] static constexpr Tier leaves_of(const net::TopologyInfo& topo) {
    return {topo.leaves, topo.uplinks_per_leaf(), topo.leaves, topo.hosts_per_leaf};
  }
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

  /// Monitor `row` of `tier`.
  PortMonitor(net::LeafId row, const Tier& tier, std::uint16_t job = 0)
      : row_{row}, tier_{tier}, job_{job} {
#if FP_AUDIT_ENABLED
    audit_bytes_.assign(tier_.ports, 0);
#endif
  }

  /// Install this monitor on a switch's ingress tap: a leaf's ingress from
  /// spines, or a pod-spine's ingress from cores.
  void attach(net::Switch& sw) {
    sw.set_ingress_tap([this](net::UplinkIndex u, const net::Packet& p) { record(u, p); });
    switch_ = &sw;
  }
  /// The switch attach() installed this monitor on; nullptr if none.
  [[nodiscard]] const net::Switch* attached_switch() const { return switch_; }

  /// Direct feed (for unit tests, or records that bypass a switch).
  void record(net::UplinkIndex port, const net::Packet& p);

  /// Finalize the currently accumulating iteration (end of training run).
  void flush();

  void set_finalize_hook(FinalizeHook hook) { finalize_hook_ = std::move(hook); }

  [[nodiscard]] const std::vector<IterationRecord>& history() const { return history_; }
  [[nodiscard]] net::LeafId leaf() const { return row_; }

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

  net::LeafId row_;
  Tier tier_;
  std::uint16_t job_;
  const net::Switch* switch_ = nullptr;
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
