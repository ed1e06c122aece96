#include "net/egress_port.h"

#include <cassert>
#include <utility>

#include "net/switch.h"

namespace flowpulse::net {

EgressPort::EgressPort(sim::Simulator& simulator, PacketPool& pool, LinkParams params,
                       std::string name, Switch* sw, sim::Rng& fault_rng)
    : sim_{simulator},
      pool_{pool},
      params_{params},
      name_{std::move(name)},
      switch_{sw},
      fault_rng_{fault_rng} {
#if FP_AUDIT_ENABLED
  sim_.audit_register_quiesce([this] { audit_verify_quiescent(); });
#endif
}

void EgressPort::connect(Device* peer, PortIndex peer_port) {
  peer_ = peer;
  peer_port_ = peer_port;
}

std::size_t EgressPort::queued_packets() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void EgressPort::enqueue(const Packet& p) {
#if FP_AUDIT_ENABLED
  audit_enqueued_bytes_ += p.size_bytes;
#endif
  const int pi = priority_index(p.priority);
  queued_bytes_[pi] += p.size_bytes;
  queued_bytes_total_ += p.size_bytes;
  queues_[pi].push_back(pool_.put(p));
  try_start();
}

void EgressPort::set_paused(Priority prio, bool paused) {
  paused_[priority_index(prio)] = paused;
  if (!paused) try_start();
}

void EgressPort::try_start() {
  if (transmitting_) return;
  for (int pi = 0; pi < kNumPriorities; ++pi) {
    if (paused_[pi] || queues_[pi].empty()) continue;
    in_flight_ = queues_[pi].pop_front();
    // pfc_on_depart only schedules PAUSE/RESUME frames and never enqueues,
    // so this reference into the pool stays valid throughout.
    const Packet& p = pool_[in_flight_];
    queued_bytes_[pi] -= p.size_bytes;
    queued_bytes_total_ -= p.size_bytes;
    transmitting_ = true;
    if (switch_ != nullptr) switch_->pfc_on_depart(p);
    sim_.schedule_in(core::serialization_time(p.size_bytes, params_.bandwidth),
                     [this] { finish_transmission(); });
    return;
  }
}

void EgressPort::finish_transmission() {
  assert(peer_ != nullptr && "EgressPort used before connect()");
  const PacketRef ref = in_flight_;
  transmitting_ = false;
  const core::Bytes size = pool_[ref].size_bytes;

  ++counters_.tx_packets;
  counters_.tx_bytes += size;

  bool dropped = false;
  if (fault_.spec().kind != FaultSpec::Kind::kNone) {
    // Fault sampling needs an RNG only for probabilistic faults.
    if (fault_.spec().drops_all()) {
      dropped = fault_.spec().active_at(sim_.now());
    } else {
      dropped = fault_.should_drop(sim_.now(), fault_rng_);
    }
  }

  if (dropped) {
    const Packet pkt = pool_.take(ref);
    ++counters_.dropped_packets;
    counters_.dropped_bytes += size;
    if (fault_.spec().visible_to_counters) ++counters_.telemetry_dropped_packets;
    FP_TRACE(sim_, kPacketDrop, name_.c_str(), pkt.src.v(), pkt.dst.v(), size.v(), 0.0,
             fault_.spec().visible_to_counters ? "counted" : "silent");
    if (tx_hook_) tx_hook_(pkt, TxEvent::kDropped);
  } else {
    if (tx_hook_) {
      // The hook may enqueue on this lane's pool and grow it: hand it a
      // copy, never a reference into the pool.
      const Packet pkt = pool_[ref];
      tx_hook_(pkt, TxEvent::kOnWire);
    }
    if (peer_sim_ != nullptr) {
      // Cross-lane hop: the packet leaves this lane's pool and rides the
      // mailbox callable by value (a LaneFn is sized for exactly this), so
      // the destination lane needs nothing from this lane's state at
      // delivery time.
      sim_.post_remote(
          *peer_sim_, params_.prop_delay,
          // fplint: ok(lane-capture): deliver_remote touches only ingress
          // state owned by the destination lane this callable is posted to
          sim::LaneFn{[this, pkt = pool_.take(ref)] { deliver_remote(pkt); }});
    } else {
#if FP_AUDIT_ENABLED
      ++audit_on_wire_packets_;
#endif
      sim_.schedule_in(params_.prop_delay, [this, ref] { deliver(ref); });
    }
  }

  try_start();
}

void EgressPort::deliver(PacketRef ref) {
#if FP_AUDIT_ENABLED
  --audit_on_wire_packets_;
  audit_count_delivery(pool_[ref]);
#endif
  // The slot is free before the peer runs, so the next hop's enqueue
  // reuses it while it is still in cache.
  peer_->receive(pool_.take(ref), peer_port_);
}

// Delivery on the peer's lane for a packet that crossed lanes.
void EgressPort::deliver_remote(const Packet& pkt) {
#if FP_AUDIT_ENABLED
  audit_count_delivery(pkt);
#endif
  peer_->receive(pkt, peer_port_);
}

#if FP_AUDIT_ENABLED
void EgressPort::audit_count_delivery(const Packet& pkt) {
  audit_delivered_bytes_ += pkt.size_bytes;
  ++audit_delivered_packets_;
  // Mirror the PortMonitor's selection filter (kind + collective sentinel)
  // so monitor-vs-switch reconciliation compares like with like.
  if (pkt.kind == PacketKind::kData && flowid::is_collective(pkt.flow_id)) {
    audit_tagged_bytes_by_job_[flowid::job_of(pkt.flow_id)] += pkt.size_bytes;
  }
}

void EgressPort::audit_verify_quiescent() const {
  FP_AUDIT(!transmitting_ && audit_on_wire_packets_ == 0, "link-conservation", name_,
           counters_.tx_packets.v(), sim_.now().ps(),
           "packets stranded mid-link at quiesce: transmitting=" +
               std::to_string(transmitting_) +
               " on_wire=" + std::to_string(audit_on_wire_packets_));
  core::Bytes queued{};
  for (const auto& q : queues_) {
    for (std::size_t i = 0; i < q.size(); ++i) queued += pool_[q[i]].size_bytes;
  }
  FP_AUDIT(queued == queued_bytes_total_, "link-conservation", name_,
           counters_.tx_packets.v(), sim_.now().ps(),
           "queue ledger mismatch: recount=" + std::to_string(queued.v()) +
               " ledger=" + std::to_string(queued_bytes_total_.v()));
  FP_AUDIT(audit_enqueued_bytes_ == queued_bytes_total_ + counters_.tx_bytes,
           "link-conservation", name_, counters_.tx_packets.v(), sim_.now().ps(),
           "enqueued=" + std::to_string(audit_enqueued_bytes_.v()) + " != queued=" +
               std::to_string(queued_bytes_total_.v()) + " + serialized=" +
               std::to_string(counters_.tx_bytes.v()));
  FP_AUDIT(counters_.tx_bytes == counters_.dropped_bytes + audit_delivered_bytes_,
           "link-conservation", name_, counters_.tx_packets.v(), sim_.now().ps(),
           "serialized=" + std::to_string(counters_.tx_bytes.v()) + " != dropped=" +
               std::to_string(counters_.dropped_bytes.v()) + " + delivered=" +
               std::to_string(audit_delivered_bytes_.v()));
  FP_AUDIT(counters_.tx_packets == counters_.dropped_packets + audit_delivered_packets_,
           "link-conservation", name_, counters_.tx_packets.v(), sim_.now().ps(),
           "serialized pkts=" + std::to_string(counters_.tx_packets.v()) + " != dropped=" +
               std::to_string(counters_.dropped_packets.v()) + " + delivered=" +
               std::to_string(audit_delivered_packets_.v()));
}
#endif

}  // namespace flowpulse::net
