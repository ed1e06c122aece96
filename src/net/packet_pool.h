#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/strong_id.h"
#include "net/packet.h"
#include "sim/audit.h"

namespace flowpulse::net {

/// Handle to a packet stored in a PacketPool: its slot index. Valid from
/// put() until the slot is released.
struct PacketRef final : core::StrongId<PacketRef> {
  using StrongId::StrongId;
};

/// Every packet queued or propagating on the lane-local links of one event
/// lane, in one slot array.
///
/// Egress ports queue 4-byte PacketRefs instead of 64-byte Packets: a packet
/// is written into the pool once when a port enqueues it and copied out
/// once when the port delivers it. Released slots are handed out again
/// last-in first-out, so a hop that delivers a packet and enqueues it at
/// the next port's class queue writes the very slot it just read, which is
/// still in cache. Slot numbers never influence event order.
///
/// put() may grow the slot array and so invalidates every Packet& into the
/// pool. Never hold one across a call that can enqueue (a transmit hook,
/// Device::receive); copy the packet to a local first.
///
/// A pool belongs to one event lane: only the devices that lane drives use
/// it. A hop that crosses lanes carries the packet by value in the mailbox,
/// and the receiving side enqueues it into its own lane's pool.
///
/// Audit builds keep one live bit per slot: reading or releasing a slot
/// that is not live fires the `packet-pool` invariant.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Store a copy of `p` in the most recently released slot, or in a new
  /// one when none is free.
  [[nodiscard]] PacketRef put(const Packet& p) {
    if (free_.empty()) {
      slots_.push_back(p);
#if FP_AUDIT_ENABLED
      audit_live_.push_back(true);
#endif
      return PacketRef{static_cast<std::uint32_t>(slots_.size() - 1)};
    }
    const PacketRef ref = free_.back();
    free_.pop_back();
    slots_[ref.v()] = p;
#if FP_AUDIT_ENABLED
    audit_live_[ref.v()] = true;
#endif
    return ref;
  }

  /// The packet in a live slot.
  [[nodiscard]] const Packet& operator[](PacketRef ref) const {
    audit_check_live(ref, "read");
    return slots_[ref.v()];
  }

  /// Free a live slot; the next put() reuses it.
  void release(PacketRef ref) {
    audit_check_live(ref, "release");
#if FP_AUDIT_ENABLED
    audit_live_[ref.v()] = false;
#endif
    free_.push_back(ref);
  }

  /// Copy the packet out of a live slot, then release the slot.
  [[nodiscard]] Packet take(PacketRef ref) {
    Packet p = (*this)[ref];
    release(ref);
    return p;
  }

  /// Slots in use: puts minus releases.
  [[nodiscard]] std::size_t live() const { return slots_.size() - free_.size(); }

 private:
#if FP_AUDIT_ENABLED
  void audit_check_live(PacketRef ref, const char* op) const {
    FP_AUDIT(ref.v() < audit_live_.size() && audit_live_[ref.v()], "packet-pool",
             "slot" + std::to_string(ref.v()), ref.v(), 0,
             std::string{op} + " of a slot that is not live (stale handle or double release); " +
                 std::to_string(live()) + " of " + std::to_string(slots_.size()) +
                 " slots live");
  }
#else
  void audit_check_live(PacketRef /*ref*/, const char* /*op*/) const {}
#endif

  std::vector<Packet> slots_;
  std::vector<PacketRef> free_;  ///< released slots, most recent last
#if FP_AUDIT_ENABLED
  std::vector<bool> audit_live_;
#endif
};

}  // namespace flowpulse::net
