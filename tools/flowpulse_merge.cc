// flowpulse-merge: cluster-mode client for a sharded flowpulsed
// deployment. Given M daemons (listed in shard order), it routes each
// leaf's counter stream to the shard that owns it (the deterministic
// [i*L/M, (i+1)*L/M) split both sides compute), collects the per-shard
// verdicts, and merges them into the fabric verdict — bit-identical to a
// single daemon having seen every leaf.
//
//   $ ./flowpulse-merge --stream=fault.fpstream --ports=7117,7118
//        --expect-link=12:5
//   $ ./flowpulse-merge --stream=fault.fpstream
//        --port-files=/tmp/s0.port,/tmp/s1.port --shutdown
//
// Run with --help for all flags.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/flags.h"
#include "daemon/stream_file.h"

using namespace flowpulse;

namespace {

using daemon::parse_flag;

struct MergeOptions {
  std::string host = "127.0.0.1";
  std::vector<std::uint16_t> ports;  ///< in shard order
  std::string stream_path;
  fptool::Expectations expect{};
  bool shutdown = false;
  bool help = false;
  bool bad = false;
};

MergeOptions parse(int argc, char** argv) {
  MergeOptions o;
  std::string s;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      o.help = true;
    } else if (std::strcmp(a, "--shutdown") == 0) {
      o.shutdown = true;
    } else if (std::strcmp(a, "--expect-clean") == 0) {
      o.expect.expect_clean = true;
    } else if (parse_flag(a, "--host", &o.host) || parse_flag(a, "--stream", &o.stream_path)) {
      // parsed
    } else if (parse_flag(a, "--ports", &s)) {
      for (const std::string& p : fptool::split_csv(s)) {
        std::uint16_t port = 0;
        if (!daemon::parse_number(p, &port)) {
          std::fprintf(stderr, "flowpulse-merge: bad port '%s' in --ports\n", p.c_str());
          o.bad = true;
          continue;
        }
        o.ports.push_back(port);
      }
    } else if (parse_flag(a, "--port-files", &s)) {
      for (const std::string& f : fptool::split_csv(s)) {
        std::uint16_t port = 0;
        if (!fptool::read_port_file(f, &port)) {
          std::fprintf(stderr, "flowpulse-merge: cannot read port from '%s'\n", f.c_str());
          o.bad = true;
          continue;
        }
        o.ports.push_back(port);
      }
    } else if (parse_flag(a, "--expect-link", &s)) {
      if (!fptool::parse_link(s, &o.expect)) {
        std::fprintf(stderr, "flowpulse-merge: --expect-link wants LEAF:UPLINK\n");
        o.bad = true;
      }
    } else if (daemon::parse_num(a, "--expect-iter", &o.expect.expect_iter)) {
      o.expect.have_iter = true;
    } else {
      std::fprintf(stderr, "flowpulse-merge: unknown flag or bad value '%s' (try --help)\n",
                   a);
      o.bad = true;
    }
  }
  return o;
}

void usage() {
  std::puts(
      "flowpulse-merge -- route a counter stream across flowpulsed shards\n"
      "                   and merge their verdicts\n"
      "  --stream=FILE                 recorded counter stream (required)\n"
      "  --host=ADDR                   daemon host (default 127.0.0.1)\n"
      "  --ports=P0,P1,...             shard ports, in shard order\n"
      "  --port-files=F0,F1,...        or their --port-file paths\n"
      "  --expect-link=L:U / --expect-iter=N / --expect-clean\n"
      "                                verdict correctness checks\n"
      "  --shutdown                    stop every shard after the run");
}

}  // namespace

int main(int argc, char** argv) {
  const MergeOptions o = parse(argc, argv);
  if (o.help) {
    usage();
    return 0;
  }
  if (o.bad) return 2;
  if (o.stream_path.empty() || o.ports.empty()) {
    std::fprintf(stderr, "flowpulse-merge: --stream and --ports/--port-files are required\n");
    return 2;
  }

  std::string err;
  auto stream = daemon::read_stream_file(o.stream_path, &err);
  if (!stream.has_value()) {
    std::fprintf(stderr, "flowpulse-merge: %s\n", err.c_str());
    return 1;
  }
  const std::uint32_t leaves = stream->hello.topo.leaves;
  const auto shards = static_cast<std::uint32_t>(o.ports.size());

  std::vector<daemon::FabricVerdict> verdicts;
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::uint32_t lo = daemon::shard_first_leaf(leaves, i, shards);
    const std::uint32_t hi = daemon::shard_first_leaf(leaves, i + 1, shards);
    daemon::Client client;
    const auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "flowpulse-merge: shard %u (port %u): %s\n", i, o.ports[i],
                   what.c_str());
      return 1;
    };
    if (!client.connect_to(o.host, o.ports[i], &err)) return fail(err);
    if (!client.hello(stream->hello, &err)) return fail(err);
    if (stream->prediction.has_value() && !client.predict(*stream->prediction, &err)) {
      return fail(err);
    }
    std::uint64_t routed = 0;
    for (const fp::IterationRecord& rec : stream->records) {
      if (rec.leaf.v() < lo || rec.leaf.v() >= hi) continue;
      if (!client.counters(rec, &err)) return fail(err);
      ++routed;
    }
    auto verdict = client.verdict(&err);
    if (!verdict.has_value()) return fail(err);
    if (o.shutdown && !client.shutdown_server(&err)) return fail(err);
    std::printf("shard %u/%u (port %u): leaves [%u,%u), %llu records, %s\n", i, shards,
                o.ports[i], lo, hi, static_cast<unsigned long long>(routed),
                verdict->flagged ? "FLAGGED" : "clean");
    verdicts.push_back(std::move(*verdict));
  }

  const daemon::FabricVerdict merged = daemon::merge_verdicts(verdicts);
  fptool::print_verdict(merged);
  return fptool::check_expectations(merged, o.expect) ? 0 : 1;
}
