#pragma once

#include <memory>
#include <vector>

#include "net/clos_fabric.h"
#include "transport/transport.h"

namespace flowpulse::transport {

/// Convenience bundle: one Transport endpoint per host of a fabric.
class TransportLayer {
 public:
  TransportLayer(sim::Simulator& simulator, net::ClosFabric& fabric, TransportConfig config = {}) {
    endpoints_.reserve(fabric.num_hosts());
    for (const net::HostId h : core::ids<net::HostId>(fabric.num_hosts())) {
      endpoints_.push_back(std::make_unique<Transport>(simulator, fabric.host(h), config));
    }
  }

  [[nodiscard]] Transport& at(net::HostId h) { return *endpoints_[h.v()]; }
  [[nodiscard]] std::size_t size() const { return endpoints_.size(); }

  /// Aggregate stats across all endpoints.
  [[nodiscard]] TransportStats total_stats() const {
    TransportStats t{};
    for (const auto& e : endpoints_) {
      const TransportStats& s = e->stats();
      t.data_packets_sent += s.data_packets_sent;
      t.retx_packets_sent += s.retx_packets_sent;
      t.acks_sent += s.acks_sent;
      t.duplicate_data_received += s.duplicate_data_received;
      t.messages_sent += s.messages_sent;
      t.messages_received += s.messages_received;
    }
    return t;
  }

 private:
  std::vector<std::unique_ptr<Transport>> endpoints_;
};

}  // namespace flowpulse::transport
