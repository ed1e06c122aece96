// Deterministic seed-corpus generator: make_fuzz_corpus <corpus-dir> writes
// codec/, engine/ and stream/ seed files. The seeds are lifted from the
// codec-hardening tests (tests/test_daemon.cc): valid frames of every
// opcode, truncation at every byte of a small frame, wrapping dimensions,
// oversized length prefixes, and a recorded `--dump-counters`-format
// stream. Byte-for-byte reproducible — the checked-in corpus under
// tools/fuzz/corpus/ is exactly this tool's output, so `make_fuzz_corpus`
// + `git diff` audits it.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <string>
#include <vector>

#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/stream_file.h"
#include "daemon/verdict.h"
#include "net/topology_info.h"

namespace flowpulse {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Must match fuzz_topo() in harness.cc and small_topo() in test_daemon.cc.
net::TopologyInfo small_topo() { return net::TopologyInfo{4, 2, 1, 1}; }

daemon::Hello small_hello() {
  daemon::Hello h;
  h.topo = small_topo();
  h.first_leaf = net::LeafId{0};
  h.leaf_count = 4;
  return h;
}

fp::IterationRecord small_record(std::uint32_t leaf, std::uint32_t iter) {
  const net::TopologyInfo t = small_topo();
  fp::IterationRecord rec;
  rec.leaf = net::LeafId{leaf};
  rec.iteration = net::IterIndex{iter};
  rec.bytes.assign(t.uplinks_per_leaf(), 0.0);
  rec.by_src.assign(t.uplinks_per_leaf(), std::vector<double>(t.leaves, 0.0));
  for (std::uint32_t u = 0; u < t.uplinks_per_leaf(); ++u) {
    for (std::uint32_t src = 0; src < t.leaves; ++src) {
      if (src == leaf) continue;
      const double v = 1e6 / 3.0 + 0.1 * u + 1e-9 * src;
      rec.by_src[u][src] = v;
      rec.bytes[u] += v;
    }
  }
  rec.packets = 7;
  return rec;
}

fp::PortLoadMap matching_prediction() {
  const net::TopologyInfo t = small_topo();
  fp::PortLoadMap map{t.leaves, t.uplinks_per_leaf()};
  for (std::uint32_t l = 0; l < t.leaves; ++l) {
    const fp::IterationRecord rec = small_record(l, 0);
    for (std::uint32_t u = 0; u < t.uplinks_per_leaf(); ++u) {
      for (std::uint32_t src = 0; src < t.leaves; ++src) {
        map.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{src}, rec.by_src[u][src]);
      }
    }
  }
  return map;
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

void put_u32(Bytes& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// A raw frame with an arbitrary (possibly lying) length prefix.
Bytes raw_frame(std::uint32_t length, const Bytes& payload) {
  Bytes out;
  put_u32(out, length);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void write_seed(const std::filesystem::path& dir, const std::string& name,
                const Bytes& bytes) {
  std::ofstream out{dir / name, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

daemon::CounterStream recorded_stream() {
  daemon::CounterStream stream;
  stream.hello = small_hello();
  stream.prediction = matching_prediction();
  for (std::uint32_t iter = 0; iter < 3; ++iter) {
    for (std::uint32_t leaf = 0; leaf < 4; ++leaf) {
      stream.records.push_back(small_record(leaf, iter));
    }
  }
  return stream;
}

}  // namespace

int run(const std::filesystem::path& root) {
  const auto codec_dir = root / "codec";
  const auto engine_dir = root / "engine";
  const auto stream_dir = root / "stream";
  for (const auto& d : {codec_dir, engine_dir, stream_dir}) {
    std::filesystem::create_directories(d);
  }

  const Bytes hello = daemon::encode_hello(small_hello());
  const Bytes counters = daemon::encode_counters(small_record(1, 0));
  const Bytes predict = daemon::encode_predict(matching_prediction());
  const Bytes verdict_q = daemon::encode_simple(daemon::Op::kVerdict);
  const Bytes stats_q = daemon::encode_simple(daemon::Op::kStats);
  const Bytes quit = daemon::encode_simple(daemon::Op::kQuit);
  const Bytes shutdown = daemon::encode_simple(daemon::Op::kShutdown);
  const Bytes err = daemon::encode_err(daemon::Err::kBadDimensions, "ports mismatch");
  const Bytes verdict_reply = daemon::encode_verdict_reply(daemon::FabricVerdict{});
  daemon::StatsSnapshot stats;
  stats.frames_in = 12;
  stats.counters_ingested = 8;
  const Bytes stats_reply = daemon::encode_stats_reply(stats);

  // --- codec/: one seed per opcode, plus framing-level hostility ----------
  write_seed(codec_dir, "hello", hello);
  write_seed(codec_dir, "counters", counters);
  write_seed(codec_dir, "predict", predict);
  write_seed(codec_dir, "verdict_query", verdict_q);
  write_seed(codec_dir, "stats_query", stats_q);
  write_seed(codec_dir, "err", err);
  write_seed(codec_dir, "verdict_reply", verdict_reply);
  write_seed(codec_dir, "stats_reply", stats_reply);
  write_seed(codec_dir, "back_to_back", concat({hello, predict, counters, quit}));
  // Truncation at every byte of a HELLO frame (the PR 7 hardening sweep).
  for (std::size_t cut = 0; cut < hello.size(); ++cut) {
    char name[40];
    std::snprintf(name, sizeof(name), "hello_trunc_%02zu", cut);
    write_seed(codec_dir, name, Bytes{hello.begin(), hello.begin() + cut});
  }
  write_seed(codec_dir, "zero_length_frame", raw_frame(0, {}));
  write_seed(codec_dir, "oversized_prefix",
             raw_frame(daemon::kMaxFramePayload + 1, {0x01}));
  write_seed(codec_dir, "huge_prefix", raw_frame(0xFFFFFFFFu, {0x01, 0x02}));
  // COUNTERS whose ports×senders product wraps 32 bits (dimension guard).
  {
    Bytes wrap;
    wrap.push_back(static_cast<std::uint8_t>(daemon::Op::kCounters));
    put_u32(wrap, 1);           // leaf
    put_u32(wrap, 0);           // iteration
    put_u32(wrap, 7);           // packets (u64, low half)
    put_u32(wrap, 0);           // packets (high half)
    put_u32(wrap, 0x10000u);    // ports
    put_u32(wrap, 0x10000u);    // senders: 32-bit product would wrap
    write_seed(codec_dir, "counters_wrapping_dims",
               raw_frame(static_cast<std::uint32_t>(wrap.size()), wrap));
  }

  // --- engine/: whole-connection byte streams -----------------------------
  write_seed(engine_dir, "clean_session",
             concat({hello, predict, counters, verdict_q, stats_q, quit}));
  write_seed(engine_dir, "shutdown_session", concat({hello, counters, shutdown}));
  write_seed(engine_dir, "counters_before_hello", concat({counters, verdict_q}));
  write_seed(engine_dir, "double_hello", concat({hello, hello, counters}));
  {
    daemon::Hello bad_version = small_hello();
    bad_version.version = 99;
    write_seed(engine_dir, "bad_version",
               concat({daemon::encode_hello(bad_version), counters}));
  }
  {
    daemon::Hello wrong_topo = small_hello();
    wrong_topo.topo.spines = 7;
    write_seed(engine_dir, "topology_mismatch",
               concat({daemon::encode_hello(wrong_topo)}));
  }
  {
    daemon::Hello narrow = small_hello();
    narrow.first_leaf = net::LeafId{1};
    narrow.leaf_count = 1;
    // COUNTERS for leaf 3, outside the registered [1, 2) range.
    write_seed(engine_dir, "unregistered_leaf",
               concat({daemon::encode_hello(narrow),
                       daemon::encode_counters(small_record(3, 0))}));
  }
  write_seed(engine_dir, "reply_as_request", concat({hello, stats_reply}));
  write_seed(engine_dir, "unknown_opcode",
             raw_frame(1, {0x5A}));
  write_seed(engine_dir, "oversized_then_frames",
             concat({raw_frame(daemon::kMaxFramePayload + 1, {}), hello}));
  write_seed(engine_dir, "truncated_tail",
             concat({hello, Bytes{counters.begin(), counters.begin() + 9}}));

  // --- stream/: --dump-counters files -------------------------------------
  const Bytes recorded = daemon::encode_stream(recorded_stream());
  write_seed(stream_dir, "recorded_dump", recorded);
  {
    daemon::CounterStream bare;
    bare.hello = small_hello();
    write_seed(stream_dir, "hello_only", daemon::encode_stream(bare));
  }
  {
    daemon::CounterStream no_predict;
    no_predict.hello = small_hello();
    no_predict.records.push_back(small_record(0, 0));
    write_seed(stream_dir, "no_predict", daemon::encode_stream(no_predict));
  }
  write_seed(stream_dir, "starts_with_counters", concat({counters, hello}));
  write_seed(stream_dir, "quit_in_stream", concat({hello, quit}));
  write_seed(stream_dir, "trailing_garbage",
             concat({recorded, Bytes{0xDE, 0xAD, 0xBE}}));
  write_seed(stream_dir, "empty", {});
  // Truncation sweep over the prefix of the recorded stream (every byte of
  // the HELLO + the first bytes of the PREDICT frame).
  for (std::size_t cut = 0; cut < hello.size() + 8; ++cut) {
    char name[32];
    std::snprintf(name, sizeof(name), "dump_trunc_%02zu", cut);
    write_seed(stream_dir, name, Bytes{recorded.begin(), recorded.begin() + cut});
  }

  std::printf("make_fuzz_corpus: wrote corpus under %s\n", root.c_str());
  return 0;
}

}  // namespace flowpulse

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_fuzz_corpus <corpus-dir>\n");
    return 2;
  }
  return flowpulse::run(argv[1]);
}
