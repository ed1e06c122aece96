#include "collective/demand_matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace flowpulse::collective {
namespace {

bool row_major_less(const DemandMatrix::Pair& p, std::pair<net::HostId, net::HostId> key) {
  return std::pair{p.src, p.dst} < key;
}

}  // namespace

DemandMatrix DemandMatrix::from_schedule(const CommSchedule& schedule,
                                         const std::vector<net::HostId>& rank_to_host,
                                         std::uint32_t num_hosts) {
  assert(rank_to_host.size() == schedule.ranks);
  DemandMatrix m{num_hosts};
  for (std::uint32_t r = 0; r < schedule.ranks; ++r) {
    for (const SendRun& run : schedule.runs_of(r)) {
      m.add(rank_to_host[r], rank_to_host[run.dst_rank], run.bytes * run.count);
    }
  }
  return m;
}

core::Bytes DemandMatrix::at(net::HostId src, net::HostId dst) const {
  const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), std::pair{src, dst},
                                   row_major_less);
  return it != pairs_.end() && it->src == src && it->dst == dst ? it->bytes : core::Bytes{0};
}

void DemandMatrix::add(net::HostId src, net::HostId dst, core::Bytes bytes) {
  assert(src.v() < hosts_ && dst.v() < hosts_);
  if (bytes == core::Bytes{0}) return;
  const auto it = std::lower_bound(pairs_.begin(), pairs_.end(), std::pair{src, dst},
                                   row_major_less);
  if (it != pairs_.end() && it->src == src && it->dst == dst) {
    it->bytes += bytes;
  } else {
    pairs_.insert(it, Pair{src, dst, bytes});
  }
}

core::Bytes DemandMatrix::total() const {
  core::Bytes t{};
  for (const Pair& p : pairs_) t += p.bytes;
  return t;
}

}  // namespace flowpulse::collective
