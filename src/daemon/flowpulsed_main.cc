// flowpulsed: the FlowPulse online detection daemon. Leaf reporters
// connect over TCP, register with HELLO, install a baseline with PREDICT,
// and stream finalized per-iteration counters with COUNTERS; operators
// query VERDICT/STATS and stop the daemon with SHUTDOWN (or SIGINT).
//
//   $ ./flowpulsed --leaves=32 --spines=16 --port=0 --port-file=/tmp/fp.port
//   $ ./flowpulsed --leaves=64 --spines=32 --shard-index=1 --shard-count=4
//
// Run with --help for all flags.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "daemon/engine.h"
#include "daemon/flags.h"
#include "daemon/server.h"

using namespace flowpulse;

namespace {

using daemon::parse_flag;
using daemon::parse_num;

struct DaemonOptions {
  daemon::ServerConfig server{};
  net::TopologyInfo topo{};
  std::uint16_t job = 0;
  std::string detector = "streaming";  // streaming | threshold
  double threshold = 0.01;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  bool help = false;
  bool bad = false;
};

DaemonOptions parse(int argc, char** argv) {
  DaemonOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      o.help = true;
    } else if (parse_num(a, "--port", &o.server.port) ||
               parse_flag(a, "--bind", &o.server.bind_address) ||
               parse_flag(a, "--port-file", &o.server.port_file) ||
               parse_num(a, "--max-connections", &o.server.max_connections) ||
               parse_num(a, "--leaves", &o.topo.leaves) ||
               parse_num(a, "--spines", &o.topo.spines) ||
               parse_num(a, "--hosts-per-leaf", &o.topo.hosts_per_leaf) ||
               parse_num(a, "--parallel", &o.topo.parallel) ||
               parse_num(a, "--job", &o.job) || parse_flag(a, "--detector", &o.detector) ||
               parse_num(a, "--threshold", &o.threshold) ||
               parse_num(a, "--shard-index", &o.shard_index) ||
               parse_num(a, "--shard-count", &o.shard_count)) {
      // parsed
    } else {
      std::fprintf(stderr, "flowpulsed: unknown flag or bad value '%s' (try --help)\n", a);
      o.bad = true;
    }
  }
  return o;
}

void usage() {
  std::puts(
      "flowpulsed -- FlowPulse online detection daemon\n"
      "  --port=N             TCP listen port (0 = ephemeral; default 7117)\n"
      "  --bind=ADDR          bind address (default 127.0.0.1)\n"
      "  --port-file=PATH     write the bound port here after listen()\n"
      "  --max-connections=N  connection cap (default 1024)\n"
      "  --leaves=N --spines=N --hosts-per-leaf=N --parallel=N\n"
      "                       fabric shape (must match clients' HELLO)\n"
      "  --job=N              monitored job id (default 0)\n"
      "  --detector=KIND      streaming | threshold (default streaming)\n"
      "  --threshold=F        relative-deviation threshold of --detector=threshold,\n"
      "                       above 0 (default 0.01; streaming judges by its own\n"
      "                       bounds)\n"
      "  --shard-index=I --shard-count=N\n"
      "                       cluster mode: own leaves [I*L/N, (I+1)*L/N)");
}

// fplint: ok(mutable-global): signal-handler bridge — written once in
// main() before signals are installed, read only by on_signal(); POSIX
// signal delivery is the one consumer a member cannot serve
daemon::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  const DaemonOptions o = parse(argc, argv);
  if (o.help) {
    usage();
    return 0;
  }
  if (o.bad) return 2;
  if (o.shard_count == 0 || o.shard_index >= o.shard_count) {
    std::fprintf(stderr, "flowpulsed: --shard-index must be < --shard-count\n");
    return 2;
  }
  if (o.detector != "streaming" && o.detector != "threshold") {
    std::fprintf(stderr, "flowpulsed: --detector must be streaming|threshold\n");
    return 2;
  }
  if (o.threshold <= 0.0) {
    std::fprintf(stderr, "flowpulsed: --threshold must be above 0\n");
    return 2;
  }
  if (o.topo.leaves == 0 || o.topo.spines == 0 || o.topo.hosts_per_leaf == 0 ||
      o.topo.parallel == 0) {
    std::fprintf(stderr,
                 "flowpulsed: --leaves, --spines, --hosts-per-leaf and --parallel must be at "
                 "least 1\n");
    return 2;
  }
  if (o.server.max_connections < 1) {
    std::fprintf(stderr, "flowpulsed: --max-connections must be at least 1\n");
    return 2;
  }

  daemon::EngineConfig engine_config;
  engine_config.topo = o.topo;
  engine_config.system.job = o.job;
  engine_config.system.threshold = o.threshold;
  engine_config.system.detector =
      o.detector == "streaming" ? fp::DetectorKind::kStreaming : fp::DetectorKind::kThreshold;
  engine_config.shard_index = o.shard_index;
  engine_config.shard_count = o.shard_count;

  daemon::DaemonEngine engine{engine_config};
  daemon::Server server{o.server, engine};
  if (!server.open()) return 1;

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("flowpulsed listening on %s:%u (shard %u/%u, leaves [%u,%u), %ux%u fabric, %s)\n",
              o.server.bind_address.c_str(), server.port(), o.shard_index, o.shard_count,
              engine.owned_first().v(), engine.owned_first().v() + engine.owned_count(),
              o.topo.leaves, o.topo.spines, o.detector.c_str());
  std::fflush(stdout);

  const int rc = server.run();
  g_server = nullptr;
  std::printf("flowpulsed: clean shutdown (%llu counters ingested, %llu alerts)\n",
              static_cast<unsigned long long>(engine.stats().counters_ingested),
              static_cast<unsigned long long>(engine.stats().alerts));
  return rc;
}
