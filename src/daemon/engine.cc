#include "daemon/engine.h"

#include <string>

namespace flowpulse::daemon {

DaemonEngine::DaemonEngine(const EngineConfig& config) : config_{config} {
  const std::uint32_t leaves = config_.topo.leaves;
  const std::uint32_t first =
      shard_first_leaf(leaves, config_.shard_index, config_.shard_count);
  const std::uint32_t end =
      shard_first_leaf(leaves, config_.shard_index + 1, config_.shard_count);
  owned_first_ = net::LeafId{first};
  owned_count_ = end - first;
  // The detection core over the bare topology view: full-fabric indices so
  // PortLoadMap predictions install unchanged on every shard; only the
  // owned leaf range ever sees counters.
  system_ = std::make_unique<fp::FlowPulseSystem>(fp::Tier::leaves_of(config_.topo),
                                                   config_.system);
  system_->set_alert_hook([this](const fp::DetectionResult& r) {
    accumulator_.fold(r);
    stats_.alerts = accumulator_.faulty_results();
  });
  stats_.shard_index = config_.shard_index;
  stats_.shard_count = config_.shard_count;
  stats_.owned_first = owned_first_;
  stats_.owned_leaves = owned_count_;
}

EngineReply DaemonEngine::err(Err code, std::string_view message) {
  ++stats_.errors;
  EngineReply r;
  r.bytes = encode_err(code, message);
  return r;
}

EngineReply DaemonEngine::on_bad_stream(Err code) {
  EngineReply r = err(code, code == Err::kOversized
                                ? "length prefix beyond kMaxFramePayload"
                                : "zero-length frame");
  r.close = true;  // framing is lost; no way to resynchronize
  return r;
}

EngineReply DaemonEngine::on_frame(Session& session, std::span<const std::uint8_t> frame) {
  ++stats_.frames_in;
  if (frame.empty()) return on_bad_stream(Err::kBadFrame);
  const Op op = static_cast<Op>(frame[0]);
  const std::span<const std::uint8_t> body = frame.subspan(1);
  switch (op) {
    case Op::kHello:
      return handle_hello(session, body);
    case Op::kCounters:
      return handle_counters(session, body);
    case Op::kPredict:
      return handle_predict(session, body);
    case Op::kVerdict: {
      ++stats_.verdict_queries;
      EngineReply r;
      r.bytes = encode_verdict_reply(accumulator_.verdict());
      return r;
    }
    case Op::kStats: {
      EngineReply r;
      r.bytes = encode_stats_reply(stats_);
      return r;
    }
    case Op::kQuit: {
      EngineReply r;
      r.bytes = encode_simple(Op::kOk);
      r.close = true;
      return r;
    }
    case Op::kShutdown: {
      EngineReply r;
      r.bytes = encode_simple(Op::kOk);
      r.shutdown = true;
      return r;
    }
    case Op::kOk:
    case Op::kErr:
    case Op::kVerdictReply:
    case Op::kStatsReply:
      return err(Err::kBadOpcode, "reply opcode in a request");
  }
  return err(Err::kBadOpcode, "unknown opcode " + std::to_string(frame[0]));
}

EngineReply DaemonEngine::handle_hello(Session& session, std::span<const std::uint8_t> body) {
  const std::optional<Hello> h = decode_hello(body);
  if (!h.has_value()) return err(Err::kBadFrame, "malformed HELLO");
  if (h->version != kProtoVersion) {
    return err(Err::kBadVersion,
               "protocol version " + std::to_string(h->version) + ", daemon speaks " +
                   std::to_string(kProtoVersion));
  }
  const net::TopologyInfo& t = config_.topo;
  if (h->topo.leaves != t.leaves || h->topo.spines != t.spines ||
      h->topo.hosts_per_leaf != t.hosts_per_leaf || h->topo.parallel != t.parallel) {
    return err(Err::kTopologyMismatch, "fabric shape differs from the daemon's");
  }
  if (h->job != config_.system.job) {
    return err(Err::kTopologyMismatch, "job id differs from the daemon's");
  }
  if (h->leaf_count == 0 ||
      static_cast<std::uint64_t>(h->first_leaf.v()) + h->leaf_count > t.leaves) {
    return err(Err::kBadDimensions, "leaf range outside the fabric");
  }
  session.registered = true;
  session.first_leaf = h->first_leaf;
  session.leaf_count = h->leaf_count;
  EngineReply r;
  r.bytes = encode_simple(Op::kOk);
  return r;
}

EngineReply DaemonEngine::handle_counters(Session& session,
                                          std::span<const std::uint8_t> body) {
  std::optional<fp::IterationRecord> rec = decode_counters(body);
  if (!rec.has_value()) {
    ++stats_.counters_rejected;
    return err(Err::kBadFrame, "malformed COUNTERS");
  }
  if (!session.registered) {
    ++stats_.counters_rejected;
    return err(Err::kNoHello, "COUNTERS before HELLO");
  }
  const net::TopologyInfo& t = config_.topo;
  if (rec->bytes.size() != t.uplinks_per_leaf() ||
      (!rec->by_src.empty() && rec->by_src.front().size() != t.leaves)) {
    ++stats_.counters_rejected;
    return err(Err::kBadDimensions, "ports/senders do not match the fabric");
  }
  if (rec->leaf.v() >= t.leaves || rec->leaf.v() < session.first_leaf.v() ||
      rec->leaf.v() >= session.first_leaf.v() + session.leaf_count) {
    ++stats_.counters_rejected;
    return err(Err::kUnregisteredLeaf,
               "leaf " + std::to_string(rec->leaf.v()) + " is not in this "
               "connection's registered range");
  }
  if (!owns(rec->leaf)) {
    ++stats_.counters_rejected;
    return err(Err::kNotOwned, "leaf " + std::to_string(rec->leaf.v()) +
                                   " belongs to another shard");
  }
  // The exact pipeline a PortMonitor finalize takes: evaluation, result
  // collection, alert hook (which folds into the verdict accumulator).
  system_->ingest(*rec);
  system_->clear_results();  // folded; keep daemon memory flat
  ++stats_.counters_ingested;
  EngineReply r;
  r.bytes = encode_simple(Op::kOk);
  return r;
}

EngineReply DaemonEngine::handle_predict(Session& session,
                                         std::span<const std::uint8_t> body) {
  std::optional<fp::PortLoadMap> map = decode_predict(body);
  if (!map.has_value()) return err(Err::kBadFrame, "malformed PREDICT");
  if (!session.registered) return err(Err::kNoHello, "PREDICT before HELLO");
  const net::TopologyInfo& t = config_.topo;
  if (map->leaves() != t.leaves || map->uplinks() != t.uplinks_per_leaf()) {
    return err(Err::kBadDimensions, "prediction shape does not match the fabric");
  }
  system_->set_prediction(std::move(*map));
  ++stats_.predict_installs;
  EngineReply r;
  r.bytes = encode_simple(Op::kOk);
  return r;
}

}  // namespace flowpulse::daemon
