#include "transport/transport.h"

#include <algorithm>
#include <cassert>

namespace flowpulse::transport {

Transport::Transport(sim::Simulator& simulator, net::Host& host, TransportConfig config)
    : sim_{simulator}, host_{host}, config_{config} {
  host_.set_rx_handler([this](const net::Packet& p) { on_packet(p); });
  host_.nic().set_tx_hook([this](const net::Packet& p, net::EgressPort::TxEvent) {
    // A drop on the host→leaf link still starts the RTO clock: from the
    // sender's perspective the segment went out and was never acked.
    on_wire(p);
  });
}

std::uint64_t Transport::send_message(const MessageSpec& spec) {
  assert(spec.bytes > core::Bytes{0});
  const std::uint64_t msg_id = send_base_ + sends_.size();
  SendState& st = sends_.emplace_back();
  st.spec = spec;
  st.msg_id = msg_id;
  st.total_segments = static_cast<std::uint32_t>(
      (spec.bytes.v() + config_.mtu_payload - 1) / config_.mtu_payload);
  st.segments.resize(st.total_segments);
  pump(st);
  return msg_id;
}

Transport::SendState* Transport::in_flight(std::uint64_t msg_id) {
  if (msg_id < send_base_ || msg_id - send_base_ >= sends_.size()) return nullptr;
  SendState& st = sends_[msg_id - send_base_];
  return st.done ? nullptr : &st;
}

Transport::SourceState& Transport::source_state(net::HostId src) {
  auto it = std::lower_bound(sources_.begin(), sources_.end(), src,
                             [](const SourceState& s, net::HostId h) { return s.src < h; });
  if (it == sources_.end() || it->src != src) it = sources_.insert(it, SourceState{src, {}, {}});
  return *it;
}

std::uint32_t Transport::segment_payload(const SendState& st, std::uint32_t seq) const {
  const std::uint64_t offset = static_cast<std::uint64_t>(seq) * config_.mtu_payload;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(config_.mtu_payload, st.spec.bytes.v() - offset));
}

void Transport::pump(SendState& st) {
  while (st.outstanding < config_.window && st.next_unsent < st.total_segments) {
    transmit_segment(st, st.next_unsent);
    ++st.next_unsent;
    ++st.outstanding;
    ++stats_.data_packets_sent;
  }
  FP_AUDIT(st.outstanding <= config_.window, "message-accounting",
           "host" + std::to_string(host_.id().v()) + ".transport", st.msg_id, sim_.now().ps(),
           "window overrun: outstanding=" + std::to_string(st.outstanding) + " window=" +
               std::to_string(config_.window));
}

void Transport::transmit_segment(SendState& st, std::uint32_t seq) {
  net::Packet p;
  p.flow_id = st.spec.flow_id;
  p.src = host_.id();
  p.dst = st.spec.dst;
  p.msg_id = st.msg_id;
  p.msg_bytes = st.spec.bytes;
  p.total_segments = st.total_segments;
  p.seq = seq;
  p.size_bytes = core::Bytes{segment_payload(st, seq)} + net::kHeaderBytes;
  p.kind = net::PacketKind::kData;
  p.priority = st.spec.priority;
  p.retx = st.segments[seq].attempts;
  ++st.segments[seq].attempts;
  host_.nic().enqueue(p);
}

sim::Time Transport::effective_rto() const {
  if (!config_.adaptive_rto) return config_.rto;
  if (srtt_ == sim::Time::zero()) return config_.rto * kInitialRtoMultiplier;
  const sim::Time adaptive = srtt_ + 4 * rttvar_;
  return adaptive > config_.rto ? adaptive : config_.rto;
}

void Transport::on_wire(const net::Packet& p) {
  if (p.kind != net::PacketKind::kData || p.src != host_.id()) return;
  SendState* st = in_flight(p.msg_id);
  if (st == nullptr || st->segments[p.seq].acked) return;
  st->segments[p.seq].wire_time = sim_.now();
  // RTO for attempt k: rto << min(k, kMaxBackoffShift).
  constexpr int kMaxBackoffShift = 6;
  const int shift = std::min<int>(p.retx, kMaxBackoffShift);
  const sim::Time timeout = sim::Time::picoseconds(effective_rto().ps() << shift);
  const std::uint8_t attempt = p.retx;
  const std::uint64_t msg_id = p.msg_id;
  const std::uint32_t seq = p.seq;
  sim_.schedule_in(timeout, [this, msg_id, seq, attempt] { on_rto(msg_id, seq, attempt); });
}

void Transport::on_rto(std::uint64_t msg_id, std::uint32_t seq, std::uint8_t attempt) {
  SendState* st = in_flight(msg_id);
  if (st == nullptr || st->segments[seq].acked) return;  // stale timer: already acked
  if (st->segments[seq].attempts != attempt + 1) return;  // stale timer: newer attempt pending
  ++stats_.retx_packets_sent;
  FP_TRACE(sim_, kRtoFire, "", host_.id().v(), seq, msg_id, static_cast<double>(attempt), "");
  transmit_segment(*st, seq);
}

void Transport::on_packet(const net::Packet& p) {
  switch (p.kind) {
    case net::PacketKind::kData:
      on_data(p);
      break;
    case net::PacketKind::kAck:
      on_ack(p);
      break;
    case net::PacketKind::kProbe:
      if (probe_handler_) probe_handler_(p);
      break;
  }
}

void Transport::on_data(const net::Packet& p) {
  // Update receive state first so the ACK can carry a SACK bitmap of the
  // segments below p.seq that have also arrived: all of them, once the
  // message is complete.
  const std::uint32_t span = std::min<std::uint32_t>(64, p.seq);
  std::uint64_t bitmap = span == 64 ? ~0ull : (1ull << span) - 1;
  bool duplicate = false;
  bool completes = false;
  SourceState& from = source_state(p.src);
  if (from.was_delivered(p.msg_id)) {
    duplicate = true;
  } else if (p.total_segments == 1) {
    completes = true;
  } else {
    auto it = std::find_if(from.partial.begin(), from.partial.end(),
                           [&p](const PartialRecv& r) { return r.msg_id == p.msg_id; });
    if (it == from.partial.end()) {
      it = from.partial.insert(
          it, PartialRecv{p.msg_id, 0, std::vector<std::uint8_t>(p.total_segments, 0)});
    }
    if (it->got[p.seq]) {
      duplicate = true;
    } else {
      it->got[p.seq] = 1;
      completes = ++it->received == it->got.size();
    }
    if (completes) {
      std::iter_swap(it, from.partial.end() - 1);
      from.partial.pop_back();
    } else {
      bitmap = 0;
      for (std::uint32_t i = 1; i <= span; ++i) {
        if (it->got[p.seq - i]) bitmap |= 1ull << (i - 1);
      }
    }
  }
  if (completes) from.mark_delivered(p.msg_id);
  if (duplicate) ++stats_.duplicate_data_received;

  // Always acknowledge — late retransmits of a completed message must be
  // acked or the sender never finishes.
  net::Packet ack;
  ack.flow_id = p.flow_id;
  ack.src = host_.id();
  ack.dst = p.src;
  ack.msg_id = p.msg_id;
  ack.seq = p.seq;
  ack.size_bytes = net::kControlPacketBytes;
  ack.kind = net::PacketKind::kAck;
  ack.priority = net::Priority::kControl;
  ack.ack_bitmap = bitmap;
  host_.nic().enqueue(ack);
  ++stats_.acks_sent;

  if (completes) deliver(p);
}

void Transport::deliver(const net::Packet& p) {
  ++stats_.messages_received;
  const RecvInfo info{p.src, host_.id(), p.msg_id, p.flow_id, p.msg_bytes};
#if FP_AUDIT_ENABLED
  AuditDelivery& audit = audit_delivered_[{p.src, p.msg_id}];
  audit.flow = p.flow_id;
  audit.bytes = p.msg_bytes;
  ++audit.deliveries;
  FP_AUDIT(audit.deliveries == 1, "message-exactly-once",
           "host" + std::to_string(host_.id().v()) + ".transport", p.msg_id, sim_.now().ps(),
           "message from host" + std::to_string(p.src.v()) + " delivered " +
               std::to_string(audit.deliveries) + " times");
#endif
  for (const RecvHandler& handler : recv_handlers_) handler(info);
}

#if FP_AUDIT_ENABLED
void Transport::audit_redeliver(net::HostId src, std::uint64_t msg_id) {
  auto it = audit_delivered_.find({src, msg_id});
  if (it == audit_delivered_.end()) return;
  AuditDelivery& audit = it->second;
  ++audit.deliveries;
  FP_AUDIT(audit.deliveries == 1, "message-exactly-once",
           "host" + std::to_string(host_.id().v()) + ".transport", msg_id, sim_.now().ps(),
           "message from host" + std::to_string(src.v()) + " delivered " +
               std::to_string(audit.deliveries) + " times");
  const RecvInfo info{src, host_.id(), msg_id, audit.flow, audit.bytes};
  for (const RecvHandler& handler : recv_handlers_) handler(info);
}
#endif

void Transport::on_ack(const net::Packet& p) {
  SendState* found = in_flight(p.msg_id);
  if (found == nullptr) return;
  SendState& st = *found;

  // RTT sampling with Karn's rule: only an unambiguous (first-attempt,
  // not-yet-acked) direct acknowledgement contributes; RFC 6298 smoothing.
  const SegmentState& direct = st.segments[p.seq];
  if (!direct.acked && direct.attempts == 1 && direct.wire_time > sim::Time::zero()) {
    const sim::Time sample = sim_.now() - direct.wire_time;
    if (srtt_ == sim::Time::zero()) {
      srtt_ = sample;
      rttvar_ = sim::Time::picoseconds(sample.ps() / 2);
    } else {
      const std::int64_t err = sample.ps() - srtt_.ps();
      const std::int64_t abs_err = err < 0 ? -err : err;
      rttvar_ = sim::Time::picoseconds((3 * rttvar_.ps() + abs_err) / 4);
      srtt_ = sim::Time::picoseconds(srtt_.ps() + err / 8);
    }
  }

  auto mark_acked = [&st](std::uint32_t seq) {
    SegmentState& seg = st.segments[seq];
    if (seg.acked || seg.attempts == 0) return;
    seg.acked = true;
    ++st.acked;
    assert(st.outstanding > 0);
    --st.outstanding;
  };
  mark_acked(p.seq);
  // SACK bitmap: segments below p.seq the receiver also holds. This keeps
  // a lost ACK from looking like a lost data segment.
  for (std::uint32_t i = 1; i <= 64 && i <= p.seq; ++i) {
    if (p.ack_bitmap & (1ull << (i - 1))) mark_acked(p.seq - i);
  }

  if (st.acked == st.total_segments) {
    st.done = true;
    FP_AUDIT(st.outstanding == 0 && st.next_unsent == st.total_segments,
             "message-accounting", "host" + std::to_string(host_.id().v()) + ".transport",
             st.msg_id, sim_.now().ps(),
             "completed with outstanding=" + std::to_string(st.outstanding) +
                 " next_unsent=" + std::to_string(st.next_unsent) + " of " +
                 std::to_string(st.total_segments) + " segments");
    ++stats_.messages_sent;
    // Free what the message held, then retire the completed prefix of the
    // window; `st` may be gone after this.
    st.segments = std::vector<SegmentState>();
    while (!sends_.empty() && sends_.front().done) {
      sends_.pop_front();
      ++send_base_;
    }
    return;
  }
  pump(st);
}

}  // namespace flowpulse::transport
