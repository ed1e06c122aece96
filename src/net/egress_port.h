#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "core/ring.h"
#include "core/units.h"
#include "net/counters.h"
#include "net/device.h"
#include "net/fault.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/types.h"
#include "sim/audit.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

#if FP_AUDIT_ENABLED
#include <map>
#endif

namespace flowpulse::net {

class Switch;

/// Physical parameters of one unidirectional link.
struct LinkParams {
  core::GbitsPerSec bandwidth{400.0};
  sim::Time prop_delay = sim::Time::nanoseconds(200);
};

/// An output port plus the unidirectional link it drives.
///
/// Holds one FIFO per priority, serves them in strict priority order
/// (skipping PFC-paused classes), serializes one packet at a time at the
/// link rate, applies the link's fault model when serialization completes,
/// and delivers surviving packets to the peer after the propagation delay.
///
/// PFC pause affects only the *start* of transmissions — an in-flight packet
/// always completes, as on real hardware.
///
/// Queued and propagating packets live in the PacketPool of the lane that
/// drives the port; the port itself moves only PacketRef handles.
class EgressPort {
 public:
  /// What happened to a packet at this port (for transmit hooks).
  enum class TxEvent : std::uint8_t {
    kOnWire,   ///< finished serialization and survived the fault model
    kDropped,  ///< finished serialization but lost to the link fault
  };
  using TxHook = std::function<void(const Packet&, TxEvent)>;

  /// `pool` is the packet pool of `simulator`'s lane; `sw` is the switch
  /// whose shared buffer a departing packet leaves (nullptr for a host NIC);
  /// `fault_rng` samples probabilistic faults.
  EgressPort(sim::Simulator& simulator, PacketPool& pool, LinkParams params, std::string name,
             Switch* sw, sim::Rng& fault_rng);

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  /// Attach the receiving device. Must be called before any enqueue().
  void connect(Device* peer, PortIndex peer_port);

  /// Mark this link as crossing an event-lane boundary: the peer device is
  /// owned by `peer_sim` (a different lane than the one driving this port).
  /// Deliveries then ride the lane mailbox (sim::EventLane::post_remote)
  /// with the same propagation delay instead of the local event queue, so
  /// the propagation delay doubles as the conservative lookahead the
  /// LaneRunner counts on. nullptr (the default) keeps delivery lane-local.
  void set_peer_lane(sim::Simulator* peer_sim) { peer_sim_ = peer_sim; }

  /// The simulator (event lane) that drives this port's transmit side.
  /// Lane-aware wiring compares owners to decide whether a hop crosses
  /// lanes (see Switch::send_pause and the laned FatTree constructors).
  [[nodiscard]] sim::Simulator& owner() const { return sim_; }

  /// Queue a copy of `p` for transmission; starts transmitting if idle.
  void enqueue(const Packet& p);

  /// PFC: (un)pause one priority class.
  void set_paused(Priority prio, bool paused);
  [[nodiscard]] bool paused(Priority prio) const { return paused_[priority_index(prio)]; }

  [[nodiscard]] core::Bytes queued_bytes() const { return queued_bytes_total_; }
  [[nodiscard]] core::Bytes queued_bytes(Priority prio) const {
    return queued_bytes_[priority_index(prio)];
  }
  /// Bytes a packet of priority `prio` would wait behind under strict
  /// priority scheduling: everything queued at its own class or above.
  /// This is the occupancy adaptive spraying should compare — lower-class
  /// backlog does not delay the packet, so it must not steer it (paper
  /// §5.1: prioritizing the measured collective isolates its spraying from
  /// background load).
  [[nodiscard]] core::Bytes queued_bytes_at_or_above(Priority prio) const {
    core::Bytes bytes{};
    for (int pi = 0; pi <= priority_index(prio); ++pi) bytes += queued_bytes_[pi];
    return bytes;
  }
  [[nodiscard]] std::size_t queued_packets() const;

  void set_fault(FaultSpec fault) { fault_.set_spec(fault); }
  [[nodiscard]] const FaultSpec& fault() const { return fault_.spec(); }

  /// Observe wire transmissions (used by the transport for RTO timing and
  /// by tests). Fires after serialization, before propagation, with a copy
  /// of the packet, so the hook may enqueue on any port.
  void set_tx_hook(TxHook hook) { tx_hook_ = std::move(hook); }

  [[nodiscard]] const LinkCounters& counters() const { return counters_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }
  [[nodiscard]] const std::string& name() const { return name_; }

#if FP_AUDIT_ENABLED
  /// Byte-conservation invariant, checked automatically at quiesce:
  /// enqueued == queued + serialized, serialized == dropped + delivered,
  /// nothing in flight. Public so tests can force a check mid-run.
  void audit_verify_quiescent() const;
  /// Wire bytes of tagged collective data packets delivered to the peer,
  /// per job — the independent switch-side count the FlowPulse monitors
  /// are reconciled against.
  [[nodiscard]] core::Bytes audit_tagged_bytes(std::uint16_t job) const {
    const auto it = audit_tagged_bytes_by_job_.find(job);
    return it == audit_tagged_bytes_by_job_.end() ? core::Bytes{0} : it->second;
  }
  /// Test-only: corrupt the delivered-byte ledger so the negative-invariant
  /// tests can prove the conservation check fires.
  void audit_tamper_delivered_bytes(std::int64_t delta) {
    audit_delivered_bytes_ = core::Bytes{static_cast<std::uint64_t>(
        static_cast<std::int64_t>(audit_delivered_bytes_.v()) + delta)};
  }
#endif

 private:
  void try_start();
  void finish_transmission();
  void deliver(PacketRef ref);
  void deliver_remote(const Packet& pkt);
#if FP_AUDIT_ENABLED
  void audit_count_delivery(const Packet& pkt);
#endif

  sim::Simulator& sim_;
  PacketPool& pool_;
  LinkParams params_;
  std::string name_;
  Switch* switch_;
  sim::Rng& fault_rng_;
  Device* peer_ = nullptr;
  PortIndex peer_port_ = kInvalidPort;
  /// Destination lane for cross-lane links; nullptr for lane-local links.
  /// Writes stay partitioned: the owning lane writes queues/counters and
  /// its pool, the peer lane (inside deliver_remote) writes only the
  /// delivery-side audit ledgers — no field is touched by both.
  sim::Simulator* peer_sim_ = nullptr;

  std::array<core::Ring<PacketRef>, kNumPriorities> queues_;
  std::array<core::Bytes, kNumPriorities> queued_bytes_{};
  core::Bytes queued_bytes_total_{};
  std::array<bool, kNumPriorities> paused_{};

  bool transmitting_ = false;
  PacketRef in_flight_{};

  FaultModel fault_{};
  LinkCounters counters_{};
  TxHook tx_hook_;

#if FP_AUDIT_ENABLED
  /// Packets propagating on a lane-local link (each one a pending deliver
  /// event); cross-lane packets ride the mailbox instead.
  std::uint32_t audit_on_wire_packets_ = 0;
  core::Bytes audit_enqueued_bytes_{};
  core::Bytes audit_delivered_bytes_{};
  core::Packets audit_delivered_packets_{};
  std::map<std::uint16_t, core::Bytes> audit_tagged_bytes_by_job_;
#endif
};

}  // namespace flowpulse::net
