#include "net/egress_port.h"

#include <cassert>
#include <utility>

#include "net/switch.h"

namespace flowpulse::net {

EgressPort::EgressPort(sim::Simulator& simulator, LinkParams params, std::string name,
                       Switch* sw, sim::Rng& fault_rng)
    : sim_{simulator},
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

void EgressPort::enqueue(Packet p) {
#if FP_AUDIT_ENABLED
  audit_enqueued_bytes_ += p.size_bytes;
#endif
  const int pi = priority_index(p.priority);
  queued_bytes_[pi] += p.size_bytes;
  queued_bytes_total_ += p.size_bytes;
  queues_[pi].push_back(p);
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
    queued_bytes_[pi] -= in_flight_.size_bytes;
    queued_bytes_total_ -= in_flight_.size_bytes;
    transmitting_ = true;
    if (switch_ != nullptr) switch_->pfc_on_depart(in_flight_);
    sim_.schedule_in(core::serialization_time(in_flight_.size_bytes, params_.bandwidth),
                     [this] { finish_transmission(); });
    return;
  }
}

void EgressPort::finish_transmission() {
  assert(peer_ != nullptr && "EgressPort used before connect()");
  const Packet pkt = in_flight_;
  transmitting_ = false;

  ++counters_.tx_packets;
  counters_.tx_bytes += pkt.size_bytes;

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
    ++counters_.dropped_packets;
    counters_.dropped_bytes += pkt.size_bytes;
    if (fault_.spec().visible_to_counters) ++counters_.telemetry_dropped_packets;
    FP_TRACE(sim_, kPacketDrop, name_.c_str(), pkt.src.v(), pkt.dst.v(), pkt.size_bytes.v(), 0.0,
             fault_.spec().visible_to_counters ? "counted" : "silent");
    if (tx_hook_) tx_hook_(pkt, TxEvent::kDropped);
  } else {
    if (tx_hook_) tx_hook_(pkt, TxEvent::kOnWire);
    if (peer_sim_ != nullptr) {
      // Cross-lane hop: the packet rides the mailbox callable by value (a
      // LaneFn is sized for exactly this), so the destination lane needs
      // nothing from this lane's state at delivery time.
      sim_.post_remote(
          *peer_sim_, params_.prop_delay,
          // fplint: ok(lane-capture): deliver_remote touches only ingress
          // state owned by the destination lane this callable is posted to
          sim::LaneFn{[this, pkt] { deliver_remote(pkt); }});
    } else {
      // The propagation event captures only `this`: packets on the wire live
      // in on_wire_ and, because prop_delay is one constant per link, arrive
      // in the order they were sent — the event always delivers the front.
      on_wire_.push_back(pkt);
      sim_.schedule_in(params_.prop_delay, [this] { deliver_front(); });
    }
  }

  try_start();
}

void EgressPort::deliver_front() {
  assert(!on_wire_.empty());
  deliver_remote(on_wire_.pop_front());
}

// Delivery tail shared by the lane-local path (via deliver_front) and the
// cross-lane mailbox path, where it runs on the peer's lane.
void EgressPort::deliver_remote(const Packet& pkt) {
#if FP_AUDIT_ENABLED
  audit_delivered_bytes_ += pkt.size_bytes;
  ++audit_delivered_packets_;
  // Mirror the PortMonitor's selection filter (kind + collective sentinel)
  // so monitor-vs-switch reconciliation compares like with like.
  if (pkt.kind == PacketKind::kData && flowid::is_collective(pkt.flow_id)) {
    audit_tagged_bytes_by_job_[flowid::job_of(pkt.flow_id)] += pkt.size_bytes;
  }
#endif
  peer_->receive(pkt, peer_port_);
}

#if FP_AUDIT_ENABLED
void EgressPort::audit_verify_quiescent() const {
  FP_AUDIT(!transmitting_ && on_wire_.empty(), "link-conservation", name_,
           counters_.tx_packets.v(), sim_.now().ps(),
           "packets stranded mid-link at quiesce: transmitting=" +
               std::to_string(transmitting_) + " on_wire=" + std::to_string(on_wire_.size()));
  core::Bytes queued{};
  for (const auto& q : queues_) {
    for (std::size_t i = 0; i < q.size(); ++i) queued += q[i].size_bytes;
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
