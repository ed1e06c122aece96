#include "flowpulse/fastforward.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/rng.h"

namespace flowpulse::fp {
namespace {

// splitmix64 finalizer: decorrelates the per-(leaf, iteration) noise streams
// from one another and from every other consumer of the scenario seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Active picoseconds of a flapping fault in [0, t) past its start.
[[nodiscard]] std::int64_t flap_active_ps(std::int64_t t, std::int64_t period,
                                          std::int64_t on) {
  if (t <= 0) return 0;
  return (t / period) * on + std::min(t % period, on);
}

}  // namespace

FastForwardModel::FastForwardModel(const net::TopologyInfo& info, Config config)
    : info_{info},
      config_{config},
      model_{info, config.mtu_payload, config.header_bytes},
      baseline_{info.leaves, info.uplinks_per_leaf()} {}

void FastForwardModel::rebaseline(const collective::DemandMatrix& demand,
                                  const net::RoutingState& routing) {
  routing_ = &routing;
  baseline_ = model_.predict(demand, routing);
}

double FastForwardModel::stationary_drop(const net::FaultSpec& spec) {
  using Kind = net::FaultSpec::Kind;
  switch (spec.kind) {
    case Kind::kNone:
      return 0.0;
    case Kind::kDisconnect:
    case Kind::kBlackHole:
      return 1.0;
    case Kind::kRandomDrop:
      return spec.drop_rate;
    case Kind::kGilbertElliott: {
      const double denom = spec.good_to_bad + spec.bad_to_good;
      const double bad_frac = denom > 0.0 ? spec.good_to_bad / denom : 0.0;
      return bad_frac * spec.drop_rate + (1.0 - bad_frac) * spec.good_loss;
    }
  }
  return 0.0;
}

double FastForwardModel::active_fraction(const net::FaultSpec& spec, sim::Time ws,
                                         sim::Time we) {
  if (spec.kind == net::FaultSpec::Kind::kNone || we <= ws) return 0.0;
  const sim::Time a = ws < spec.start ? spec.start : ws;
  const sim::Time b = we < spec.end ? we : spec.end;
  if (a >= b) return 0.0;
  const double window = static_cast<double>((we - ws).ps());
  if (spec.flap_period <= sim::Time::zero()) {
    return static_cast<double>((b - a).ps()) / window;
  }
  const std::int64_t period = spec.flap_period.ps();
  const std::int64_t on = std::min(spec.flap_on.ps(), period);
  const std::int64_t active = flap_active_ps((b - spec.start).ps(), period, on) -
                              flap_active_ps((a - spec.start).ps(), period, on);
  return static_cast<double>(active) / window;
}

double FastForwardModel::survival(net::LeafId src, net::UplinkIndex u, net::LeafId dst,
                                  sim::Time ws, sim::Time we) const {
  double w = 1.0;
  for (const FlowFault& f : faults_) {
    if (f.uplink != u) continue;
    const bool up = f.uplink_dir && f.leaf == src;
    const bool down = f.downlink_dir && f.leaf == dst;
    if (!up && !down) continue;
    const double p = stationary_drop(f.spec) * active_fraction(f.spec, ws, we);
    if (up) w *= 1.0 - p;
    if (down) w *= 1.0 - p;
  }
  return w;
}

IterationRecord FastForwardModel::synthesize(net::LeafId leaf, net::IterIndex iteration,
                                             sim::Time window_start,
                                             sim::Time window_end) const {
  assert(routing_ != nullptr && "rebaseline() before synthesize()");
  const std::uint32_t uplinks = info_.uplinks_per_leaf();
  IterationRecord rec;
  rec.leaf = leaf;
  rec.iteration = iteration;
  rec.bytes.assign(uplinks, 0.0);
  rec.by_src.assign(uplinks, std::vector<double>(info_.leaves, 0.0));

  for (const net::LeafId src : core::ids<net::LeafId>(info_.leaves)) {
    if (src == leaf) continue;
    // Attenuate each uplink's share by its survival weight, then re-spray
    // the lost bytes uniformly over the pair's valid uplinks (retransmit
    // resurfacing, first order). With no active fault every weight is 1.
    double lost = 0.0;
    for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(uplinks)) {
      const double share = baseline_.at(leaf, u).by_src_leaf[src.v()];
      if (share <= 0.0) continue;
      const double w = survival(src, u, leaf, window_start, window_end);
      rec.by_src[u.v()][src.v()] = share * w;
      lost += share * (1.0 - w);
    }
    if (lost > 0.0) {
      const auto& valid = routing_->valid_uplinks(src, leaf);
      if (!valid.empty()) {
        const double refill = lost / static_cast<double>(valid.size());
        for (const net::UplinkIndex u : valid) rec.by_src[u.v()][src.v()] += refill;
      }
    }
  }

  if (config_.noise_rel > 0.0) {
    // One deterministic stream per (leaf, iteration); draws happen in fixed
    // (uplink, sender) order so the record is reproducible from the seed.
    sim::Rng rng{mix(config_.seed ^ mix((static_cast<std::uint64_t>(leaf.v()) << 32) |
                                        iteration.v()))};
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      for (std::uint32_t s = 0; s < info_.leaves; ++s) {
        double& v = rec.by_src[u][s];
        if (v <= 0.0) continue;
        // Box–Muller; 1 − U keeps the log argument in (0, 1].
        const double u1 = 1.0 - rng.next_double();
        const double u2 = rng.next_double();
        const double gauss =
            std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * 3.141592653589793 * u2);
        v = std::max(0.0, v * (1.0 + config_.noise_rel * gauss));
      }
    }
  }

  double total_bytes = 0.0;
  for (std::uint32_t u = 0; u < uplinks; ++u) {
    double t = 0.0;
    for (const double v : rec.by_src[u]) t += v;
    rec.bytes[u] = t;
    total_bytes += t;
  }
  const double wire_mtu = model_.wire_bytes(core::Bytes{config_.mtu_payload});
  rec.packets = static_cast<std::uint64_t>(total_bytes / wire_mtu + 0.5);
  return rec;
}

sim::Time FastForwardModel::estimate_iteration_time(const collective::DemandMatrix& demand,
                                                    core::GbitsPerSec host_rate) const {
  std::vector<double> tx(demand.hosts(), 0.0);
  std::vector<double> rx(demand.hosts(), 0.0);
  model_.for_each_pair(demand, [&](net::HostId src, net::HostId dst, double wire) {
    tx[src.v()] += wire;
    rx[dst.v()] += wire;
  });
  double busiest = 0.0;
  for (std::size_t h = 0; h < tx.size(); ++h) busiest = std::max({busiest, tx[h], rx[h]});
  // Serialization of the busiest endpoint plus 25% pipeline/ACK slack; a
  // floor keeps zero-demand iterations from collapsing the clock.
  const sim::Time serial =
      core::serialization_time(core::Bytes{static_cast<std::uint64_t>(busiest)}, host_rate);
  const sim::Time est = sim::Time::picoseconds(serial.ps() + serial.ps() / 4);
  return est > sim::Time::microseconds(1) ? est : sim::Time::microseconds(1);
}

}  // namespace flowpulse::fp
