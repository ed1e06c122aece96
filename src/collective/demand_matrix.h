#pragma once

#include <cstdint>
#include <vector>

#include "collective/schedule.h"
#include "core/units.h"
#include "net/types.h"

namespace flowpulse::collective {

/// Per-iteration traffic demand in host space: bytes from src to dst of
/// collective payload. This is the input to FlowPulse's load prediction
/// (§5.2): for AllReduce the matrix is identical every iteration and can be
/// computed in advance from application knowledge, or measured from the
/// first iterations. Only the pairs with demand are stored: a ring over N
/// hosts has N of the N² pairs.
class DemandMatrix {
 public:
  struct Pair {
    net::HostId src{};
    net::HostId dst{};
    core::Bytes bytes{};
  };

  explicit DemandMatrix(std::uint32_t hosts) : hosts_{hosts} {}

  /// Accumulate a schedule over the given rank→host placement.
  static DemandMatrix from_schedule(const CommSchedule& schedule,
                                    const std::vector<net::HostId>& rank_to_host,
                                    std::uint32_t num_hosts);

  /// Demand of one pair; 0 when the pair has none.
  [[nodiscard]] core::Bytes at(net::HostId src, net::HostId dst) const;
  void add(net::HostId src, net::HostId dst, core::Bytes bytes);

  /// Every pair with nonzero demand, in row-major (src, dst) order.
  [[nodiscard]] const std::vector<Pair>& pairs() const { return pairs_; }
  [[nodiscard]] std::uint32_t hosts() const { return hosts_; }
  [[nodiscard]] core::Bytes total() const;

 private:
  std::uint32_t hosts_;
  std::vector<Pair> pairs_;
};

}  // namespace flowpulse::collective
