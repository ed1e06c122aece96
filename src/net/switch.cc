#include "net/switch.h"

#include <cassert>
#include <limits>
#include <utility>

namespace flowpulse::net {
namespace {

// 64-bit mix (splitmix64 finalizer) for ECMP flow hashing.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t flow_hash(const Packet& p) {
  std::uint64_t h = mix64(p.flow_id ^ 0x9e3779b97f4a7c15ULL);
  h = mix64(h ^ (static_cast<std::uint64_t>(p.src.v()) << 32 | p.dst.v()));
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Switch (base)
// ---------------------------------------------------------------------------

Switch::Switch(sim::Simulator& simulator, PacketPool& pool, std::string name,
               std::uint32_t num_ports, PortIndex first_up_port, PfcConfig pfc)
    : sim_{simulator},
      pool_{pool},
      name_{std::move(name)},
      pfc_{pfc},
      first_up_port_{first_up_port},
      ingress_bytes_(num_ports),
      upstream_paused_(num_ports),
      upstream_(num_ports, nullptr) {
  ports_.reserve(num_ports);
#if FP_AUDIT_ENABLED
  audit_pause_epoch_.resize(num_ports);
  sim_.audit_register_quiesce([this] { audit_verify_ingress_drained(); });
#endif
}

void Switch::add_port(LinkParams link, sim::Rng& fault_rng, const std::string& suffix) {
  assert(ports_.size() < upstream_.size());
  ports_.push_back(
      std::make_unique<EgressPort>(sim_, pool_, link, name_ + suffix, this, fault_rng));
}

void Switch::set_upstream(PortIndex in_port, EgressPort* upstream) {
  assert(in_port.v() < upstream_.size());
  upstream_[in_port.v()] = upstream;
}

EgressPort& Switch::upstream(UplinkIndex u) {
  EgressPort* up = upstream_[first_up_port_.v() + u.v()];
  assert(up != nullptr && "tapped port read before wiring");
  return *up;
}

const EgressPort& Switch::upstream(UplinkIndex u) const {
  const EgressPort* up = upstream_[first_up_port_.v() + u.v()];
  assert(up != nullptr && "tapped port read before wiring");
  return *up;
}

LinkCounters Switch::link_counters() const {
  LinkCounters total{};
  for (const auto& egress : ports_) total += egress->counters();
  return total;
}

void Switch::on_arrival(const Packet& p, PortIndex in_port) {
  assert(in_port.v() < ingress_bytes_.size());
  const int pi = priority_index(p.priority);
  auto& bytes = ingress_bytes_[in_port.v()][pi];
  bytes += p.size_bytes;
  if (bytes > pfc_.xoff_bytes && !upstream_paused_[in_port.v()][pi]) {
    upstream_paused_[in_port.v()][pi] = true;
    FP_TRACE(sim_, kPfcPause, name_.c_str(), in_port.v(), static_cast<std::uint32_t>(pi),
             bytes.v(), 0.0, "xoff");
    send_pause(in_port, p.priority, true);
#if FP_AUDIT_ENABLED
    // Deadlock watchdog: if this pause is still continuously asserted when
    // the watchdog fires, the ingress class never drained below XON.
    const std::uint64_t epoch = ++audit_pause_epoch_[in_port.v()][pi];
    sim_.schedule_in(kPfcStuckPauseTimeout, [this, in_port, pi, epoch] {
      FP_AUDIT(!(upstream_paused_[in_port.v()][pi] &&
                 audit_pause_epoch_[in_port.v()][pi] == epoch),
               "pfc-stuck-pause", name_ + ".in" + std::to_string(in_port.v()), pi,
               sim_.now().ps(),
               "PAUSE held continuously for " +
                   std::to_string(kPfcStuckPauseTimeout.us()) + "us; ingress class holds " +
                   std::to_string(ingress_bytes_[in_port.v()][pi].v()) + " bytes");
    });
#endif
  }
  if (tap_ && in_port.v() >= first_up_port_.v()) {
    tap_(UplinkIndex{in_port.v() - first_up_port_.v()}, p);
  }
}

void Switch::pfc_on_depart(const Packet& p) {
  if (p.pfc_ingress == kInvalidPort) return;
  assert(p.pfc_ingress.v() < ingress_bytes_.size());
  const int pi = priority_index(p.priority);
  auto& bytes = ingress_bytes_[p.pfc_ingress.v()][pi];
  assert(bytes >= p.size_bytes);
  bytes -= p.size_bytes;
  if (bytes <= pfc_.xon_bytes && upstream_paused_[p.pfc_ingress.v()][pi]) {
    upstream_paused_[p.pfc_ingress.v()][pi] = false;
    FP_TRACE(sim_, kPfcResume, name_.c_str(), p.pfc_ingress.v(),
             static_cast<std::uint32_t>(pi), bytes.v(), 0.0, "xon");
#if FP_AUDIT_ENABLED
    ++audit_pause_epoch_[p.pfc_ingress.v()][pi];  // resume: disarm the watchdog
#endif
    send_pause(p.pfc_ingress, p.priority, false);
  }
}

#if FP_AUDIT_ENABLED
void Switch::audit_verify_ingress_drained() const {
  // At quiesce every arrived packet has departed its egress queue, so the
  // shared-buffer ledger must read zero on every (port, class) — leftover
  // bytes mean a lost or double-counted departure.
  for (std::size_t port = 0; port < ingress_bytes_.size(); ++port) {
    for (int pi = 0; pi < kNumPriorities; ++pi) {
      FP_AUDIT(ingress_bytes_[port][pi].v() == 0, "pfc-buffer-accounting",
               name_ + ".in" + std::to_string(port), pi, sim_.now().ps(),
               std::to_string(ingress_bytes_[port][pi].v()) +
                   " bytes still accounted in the ingress buffer at quiesce");
    }
  }
}
#endif

void Switch::send_pause(PortIndex in_port, Priority prio, bool pause) {
  EgressPort* up = upstream_[in_port.v()];
  if (up == nullptr) return;  // host-facing port with no pausable upstream
  // The PAUSE frame crosses the reverse link; model its propagation delay.
  if (&up->owner() != &sim_) {
    // The upstream port transmits from another event lane: the PAUSE frame
    // is a cross-lane message like any other, carried by the mailbox with
    // the same reverse-link propagation delay.
    sim_.post_remote(
        up->owner(), up->params().prop_delay,
        // fplint: ok(lane-capture): `up` is owned by up->owner(), the very
        // lane this callable is posted to — never dereferenced source-side
        sim::LaneFn{[up, prio, pause] { up->set_paused(prio, pause); }});
    return;
  }
  sim_.schedule_in(up->params().prop_delay, [up, prio, pause] { up->set_paused(prio, pause); });
}

// ---------------------------------------------------------------------------
// LeafSwitch
// ---------------------------------------------------------------------------

LeafSwitch::LeafSwitch(sim::Simulator& simulator, PacketPool& pool, LeafId id,
                       const TopologyInfo& info, const RoutingState& routing, SprayPolicy spray,
                       PfcConfig pfc, LinkParams host_link, LinkParams fabric_link, sim::Rng rng,
                       sim::Rng& fault_rng)
    : Switch{simulator, pool, "leaf" + std::to_string(id.v()),
             info.hosts_per_leaf + info.uplinks_per_leaf(),
             info.leaf_uplink_port(UplinkIndex{0}), pfc},
      id_{id},
      info_{info},
      routing_{routing},
      spray_{spray},
      rng_{rng},
      sent_bytes_(static_cast<std::size_t>(info.leaves) * kNumPriorities *
                      info.uplinks_per_leaf(),
                  core::Bytes{}) {
  for (std::uint32_t h = 0; h < info.hosts_per_leaf; ++h) {
    add_port(host_link, fault_rng, ".down" + std::to_string(h));
  }
  for (const UplinkIndex u : core::ids<UplinkIndex>(info.uplinks_per_leaf())) {
    add_port(fabric_link, fault_rng, ".up" + std::to_string(u.v()));
  }
}

void LeafSwitch::receive(Packet p, PortIndex in_port) {
  on_arrival(p, in_port);
  const LeafId dst_leaf = info_.leaf_of(p.dst);
  if (dst_leaf == id_) {
    forward(p, in_port, host_port(info_.local_index(p.dst)));
    return;
  }
  const UplinkIndex u = choose_uplink(p, dst_leaf);
  if (u == kNoUplink) {
    // Network partition toward dst_leaf: count and release the buffer.
    ++counters_.no_route_drops;
    p.pfc_ingress = in_port;
    pfc_on_depart(p);
    return;
  }
  forward(p, in_port, uplink(u));
}

UplinkIndex LeafSwitch::choose_uplink(const Packet& p, LeafId dst_leaf) {
  const std::vector<UplinkIndex>& valid = routing_.valid_uplinks(id_, dst_leaf);
  if (valid.empty()) return kNoUplink;

  switch (spray_) {
    case SprayPolicy::kRandom:
      return valid[rng_.next_below(valid.size())];

    case SprayPolicy::kEcmp:
      return valid[flow_hash(p) % valid.size()];

    case SprayPolicy::kFlowlet: {
      // Let-It-Flow-style flowlet switching: a flow sticks to its lane
      // while packets keep arriving; an idle gap > kFlowletGap lets it
      // re-route to the currently least-occupied valid lane.
      if (flowlet_table_.empty()) flowlet_table_.resize(kFlowletTableSize);
      const std::uint64_t key = flow_hash(p);
      FlowletEntry& entry = flowlet_table_[key % kFlowletTableSize];
      const sim::Time now = sim_.now();
      const bool fresh = entry.key != key || now - entry.last > kFlowletGap;
      if (fresh || routing_.known_failed(id_, entry.uplink)) {
        UplinkIndex pick = valid[0];
        core::Bytes best{std::numeric_limits<std::uint64_t>::max()};
        for (const UplinkIndex u : valid) {
          const core::Bytes occ = uplink(u).queued_bytes_at_or_above(p.priority);
          if (occ < best) {
            best = occ;
            pick = u;
          }
        }
        entry.key = key;
        entry.uplink = pick;
      }
      entry.last = now;
      // The sticky uplink might be invalid for this destination (known
      // remote-side failure); fall back to a hash choice over valid lanes.
      for (const UplinkIndex u : valid) {
        if (u == entry.uplink) return u;
      }
      return valid[key % valid.size()];
    }

    case SprayPolicy::kAdaptive:
      return pick_byte_deficit(
          info_.leaf_uplink_port(UplinkIndex{0}), valid, p,
          &sent_bytes_[(static_cast<std::size_t>(dst_leaf.v()) * kNumPriorities +
                        priority_index(p.priority)) *
                       info_.uplinks_per_leaf()]);
  }
  return kNoUplink;
}

UplinkIndex Switch::pick_byte_deficit(PortIndex first,
                                      const std::vector<UplinkIndex>& candidates,
                                      const Packet& p, core::Bytes* deficit) const {
  // Occupancy is compared in grades of this many bytes, as real
  // adaptive-routing ASICs compare coarse congestion levels rather than
  // exact byte counts. Sub-grade transients (e.g. one in-flight packet of
  // another traffic class) therefore cannot steer the spray, which keeps a
  // prioritized collective's distribution independent of background phase
  // — the isolation property §5.1 relies on. Genuine congestion
  // (multi-packet queues) still redirects packets.
  constexpr core::Bytes kSprayQuantum{8192};
  // Least-occupied candidate, with round-robin tie-breaking: when a drained
  // fabric leaves all queues equal, successive packets cycle through the
  // lanes, giving the near-perfect balance real APS hardware achieves
  // instead of multinomial sampling noise.
  UplinkIndex pick = candidates[0];
  std::uint64_t best_grade = std::numeric_limits<std::uint64_t>::max();
  core::Bytes best_deficit{std::numeric_limits<std::uint64_t>::max()};
  for (const UplinkIndex u : candidates) {
    const std::uint64_t g =
        ports_[first.v() + u.v()]->queued_bytes_at_or_above(p.priority) / kSprayQuantum;
    if (g > best_grade) continue;
    if (g < best_grade || deficit[u.v()] < best_deficit) {
      best_grade = g;
      best_deficit = deficit[u.v()];
      pick = u;
    }
  }
  deficit[pick.v()] += p.size_bytes;
  return pick;
}

// ---------------------------------------------------------------------------
// SpineSwitch
// ---------------------------------------------------------------------------

SpineSwitch::SpineSwitch(sim::Simulator& simulator, PacketPool& pool, SpineId id,
                         const TopologyInfo& info, PfcConfig pfc, LinkParams fabric_link,
                         sim::Rng& fault_rng)
    : Switch{simulator, pool, "spine" + std::to_string(id.v()), info.leaves * info.parallel,
             /*first_up_port=*/kInvalidPort, pfc},
      id_{id},
      info_{info} {
  for (const PortIndex p : core::ids<PortIndex>(info.leaves * info.parallel)) {
    add_port(fabric_link, fault_rng, ".down" + std::to_string(p.v()));
  }
}

void SpineSwitch::receive(Packet p, PortIndex in_port) {
  on_arrival(p, in_port);
  // Arrival port encodes (src leaf, lane); keep the lane downstream so each
  // lane behaves as an independent virtual spine.
  const std::uint32_t lane = in_port.v() % info_.parallel;
  forward(p, in_port, down_port_to(info_.leaf_of(p.dst), lane));
}

}  // namespace flowpulse::net
