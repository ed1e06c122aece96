#pragma once

#include <functional>
#include <string>

#include "net/device.h"
#include "net/egress_port.h"
#include "net/packet_pool.h"
#include "net/types.h"
#include "sim/simulator.h"

namespace flowpulse::net {

/// An end host (one GPU + NIC, per the paper's workload model). Owns the
/// egress side of its NIC; the receive side hands packets straight to the
/// registered handler (the transport) — host-side processing is not the
/// bottleneck we study, so reception is instantaneous.
class Host final : public Device {
 public:
  using RxHandler = std::function<void(const Packet&)>;

  /// `pool` is the packet pool of `simulator`'s lane, which the NIC queues
  /// into.
  Host(sim::Simulator& simulator, PacketPool& pool, HostId id, LinkParams to_leaf,
       sim::Rng& fault_rng)
      : id_{id},
        nic_{simulator, pool, to_leaf, "host" + std::to_string(id.v()) + ".nic", nullptr,
             fault_rng} {}

  void receive(Packet p, PortIndex /*in_port*/) override {
    if (rx_) rx_(p);
  }

  [[nodiscard]] EgressPort& nic() { return nic_; }
  void set_rx_handler(RxHandler handler) { rx_ = std::move(handler); }
  [[nodiscard]] HostId id() const { return id_; }

 private:
  HostId id_;
  EgressPort nic_;
  RxHandler rx_;
};

}  // namespace flowpulse::net
