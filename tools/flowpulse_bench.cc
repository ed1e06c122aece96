// flowpulse-bench: redis-benchmark for flowpulsed. Opens N connections,
// streams a recorded (--stream) or synthetic counter stream with a
// configurable pipeline depth, and reports ingest throughput (iterations/s)
// and per-COUNTERS round-trip latency (p50/p99). With --expect-link /
// --expect-iter it also asserts verdict correctness against a known
// injected fault — the CI smoke test's pass/fail signal.
//
//   $ ./flowpulse-bench --port-file=/tmp/fp.port --stream=fault.fpstream
//        --connections=4 --pipeline=32 --expect-link=12:5 --expect-iter=2
//   $ ./flowpulse-bench --port=7117 --leaves=32 --spines=16 --iters=256
//        --fault-leaf=12 --fault-uplink=5 --drop=0.05 --fault-iter=64
//
// Run with --help for all flags.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/flags.h"
#include "daemon/stream_file.h"

using namespace flowpulse;

namespace {

using daemon::parse_flag;
using daemon::parse_num;

struct BenchOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7117;
  std::string port_file;
  std::string stream_path;
  std::uint32_t connections = 4;
  std::uint32_t pipeline = 16;
  // Synthetic stream shape (used when --stream is absent).
  net::TopologyInfo topo{};
  std::uint32_t iters = 64;
  double bytes_per_port = 1.5e6;
  std::uint16_t job = 0;
  std::uint32_t fault_leaf = 0, fault_uplink = 0, fault_iter = 0;
  double drop = 0.0;
  fptool::Expectations expect{};
  bool shutdown = false;
  bool help = false;
  bool bad = false;
};

BenchOptions parse(int argc, char** argv) {
  BenchOptions o;
  std::string link;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      o.help = true;
    } else if (std::strcmp(a, "--shutdown") == 0) {
      o.shutdown = true;
    } else if (std::strcmp(a, "--expect-clean") == 0) {
      o.expect.expect_clean = true;
    } else if (parse_flag(a, "--host", &o.host) || parse_num(a, "--port", &o.port) ||
               parse_flag(a, "--port-file", &o.port_file) ||
               parse_flag(a, "--stream", &o.stream_path) ||
               parse_num(a, "--connections", &o.connections) ||
               parse_num(a, "--pipeline", &o.pipeline) ||
               parse_num(a, "--leaves", &o.topo.leaves) ||
               parse_num(a, "--spines", &o.topo.spines) ||
               parse_num(a, "--hosts-per-leaf", &o.topo.hosts_per_leaf) ||
               parse_num(a, "--parallel", &o.topo.parallel) ||
               parse_num(a, "--iters", &o.iters) ||
               parse_num(a, "--bytes-per-port", &o.bytes_per_port) ||
               parse_num(a, "--job", &o.job) || parse_num(a, "--fault-leaf", &o.fault_leaf) ||
               parse_num(a, "--fault-uplink", &o.fault_uplink) ||
               parse_num(a, "--fault-iter", &o.fault_iter) || parse_num(a, "--drop", &o.drop)) {
      // parsed
    } else if (parse_flag(a, "--expect-link", &link)) {
      if (!fptool::parse_link(link, &o.expect)) {
        std::fprintf(stderr, "flowpulse-bench: --expect-link wants LEAF:UPLINK\n");
        o.bad = true;
      }
    } else if (parse_num(a, "--expect-iter", &o.expect.expect_iter)) {
      o.expect.have_iter = true;
    } else {
      std::fprintf(stderr, "flowpulse-bench: unknown flag or bad value '%s' (try --help)\n",
                   a);
      o.bad = true;
    }
  }
  return o;
}

void usage() {
  std::puts(
      "flowpulse-bench -- load generator / correctness checker for flowpulsed\n"
      "  --host=ADDR --port=N | --port-file=PATH   daemon to drive\n"
      "  --stream=FILE        replay a recorded counter stream\n"
      "  --connections=N      parallel reporter connections (default 4)\n"
      "  --pipeline=N         COUNTERS in flight per connection (default 16)\n"
      "  synthetic stream (when --stream is absent):\n"
      "    --leaves --spines --hosts-per-leaf --parallel --iters --job\n"
      "    --bytes-per-port=F    per-uplink bytes per iteration\n"
      "    --fault-leaf=L --fault-uplink=U --drop=F --fault-iter=I\n"
      "                          shave F of the bytes on L:U from iter I on\n"
      "  --expect-link=L:U    fail unless L:U is a suspect link\n"
      "  --expect-iter=N      fail unless the first faulty iteration is N\n"
      "  --expect-clean       fail if anything is flagged\n"
      "  --shutdown           stop the daemon after the run");
}

/// Uniform all-to-all baseline + a proportional shortfall on one uplink:
/// the smallest synthetic stream the detector should flag and localize.
daemon::CounterStream synthesize(const BenchOptions& o) {
  daemon::CounterStream stream;
  stream.hello.topo = o.topo;
  stream.hello.job = o.job;
  stream.hello.first_leaf = net::LeafId{0};
  stream.hello.leaf_count = o.topo.leaves;

  const std::uint32_t uplinks = o.topo.uplinks_per_leaf();
  const double per_src =
      o.topo.leaves > 1 ? o.bytes_per_port / (o.topo.leaves - 1) : o.bytes_per_port;
  fp::PortLoadMap predicted{o.topo.leaves, uplinks};
  for (std::uint32_t l = 0; l < o.topo.leaves; ++l) {
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      for (std::uint32_t src = 0; src < o.topo.leaves; ++src) {
        if (src == l) continue;
        predicted.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{src}, per_src);
      }
    }
  }
  stream.prediction = predicted;

  for (std::uint32_t it = 0; it < o.iters; ++it) {
    for (std::uint32_t l = 0; l < o.topo.leaves; ++l) {
      fp::IterationRecord rec;
      rec.leaf = net::LeafId{l};
      rec.iteration = net::IterIndex{it};
      rec.bytes.assign(uplinks, 0.0);
      rec.by_src.assign(uplinks, std::vector<double>(o.topo.leaves, 0.0));
      for (std::uint32_t u = 0; u < uplinks; ++u) {
        const bool faulty =
            o.drop > 0.0 && l == o.fault_leaf && u == o.fault_uplink && it >= o.fault_iter;
        const double scale = faulty ? 1.0 - o.drop : 1.0;
        for (std::uint32_t src = 0; src < o.topo.leaves; ++src) {
          if (src == l) continue;
          rec.by_src[u][src] = per_src * scale;
          rec.bytes[u] += per_src * scale;
        }
      }
      rec.packets = uplinks;
      stream.records.push_back(std::move(rec));
    }
  }
  return stream;
}

struct WorkerResult {
  bool ok = false;
  std::string error;
  std::vector<double> latencies_us;
};

/// One reporter connection: HELLO for its leaf range, then its share of the
/// records with up to `pipeline` COUNTERS in flight (each reply is matched
/// FIFO to its send timestamp — the redis-benchmark measurement).
void run_worker(const BenchOptions& o, const daemon::CounterStream& stream,
                net::LeafId first_leaf, std::uint32_t leaf_count, WorkerResult* result) {
  daemon::Client client;
  std::string err;
  if (!client.connect_to(o.host, o.port, &err)) {
    result->error = err;
    return;
  }
  daemon::Hello hello = stream.hello;
  hello.first_leaf = first_leaf;
  hello.leaf_count = leaf_count;
  if (!client.hello(hello, &err)) {
    result->error = err;
    return;
  }

  std::vector<std::vector<std::uint8_t>> frames;
  for (const fp::IterationRecord& rec : stream.records) {
    if (rec.leaf.v() >= first_leaf.v() && rec.leaf.v() < first_leaf.v() + leaf_count) {
      frames.push_back(daemon::encode_counters(rec));
    }
  }
  result->latencies_us.reserve(frames.size());

  using Clock = std::chrono::steady_clock;
  std::deque<Clock::time_point> inflight;
  std::size_t sent = 0, acked = 0;
  std::vector<std::uint8_t> reply;
  while (acked < frames.size()) {
    while (sent < frames.size() && inflight.size() < o.pipeline) {
      inflight.push_back(Clock::now());
      if (!client.send_frame(frames[sent], &err)) {
        result->error = err;
        return;
      }
      ++sent;
    }
    if (!client.recv_reply(reply, &err)) {
      result->error = err;
      return;
    }
    if (reply.empty() || static_cast<daemon::Op>(reply[0]) != daemon::Op::kOk) {
      const auto e = reply.empty()
                         ? std::nullopt
                         : daemon::decode_err({reply.data() + 1, reply.size() - 1});
      result->error = e.has_value()
                          ? std::string{"daemon rejected COUNTERS ["} +
                                daemon::err_name(e->code) + "]: " + e->message
                          : std::string{"unexpected reply to COUNTERS"};
      return;
    }
    const auto dt = Clock::now() - inflight.front();
    inflight.pop_front();
    result->latencies_us.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(dt).count());
    ++acked;
  }
  result->ok = true;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions o = parse(argc, argv);
  if (o.help) {
    usage();
    return 0;
  }
  if (o.bad) return 2;
  if (!o.port_file.empty() && !fptool::read_port_file(o.port_file, &o.port)) {
    std::fprintf(stderr, "flowpulse-bench: cannot read port from '%s'\n", o.port_file.c_str());
    return 1;
  }
  if (o.connections == 0 || o.pipeline == 0) {
    std::fprintf(stderr, "flowpulse-bench: --connections/--pipeline must be >= 1\n");
    return 2;
  }

  std::string err;
  daemon::CounterStream stream;
  if (!o.stream_path.empty()) {
    auto loaded = daemon::read_stream_file(o.stream_path, &err);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "flowpulse-bench: %s\n", err.c_str());
      return 1;
    }
    stream = std::move(*loaded);
  } else {
    stream = synthesize(o);
  }
  const std::uint32_t leaves = stream.hello.topo.leaves;
  const std::uint32_t connections = std::min(o.connections, leaves);

  // Control connection: install the baseline before any worker reports.
  daemon::Client control;
  if (!control.connect_to(o.host, o.port, &err) || !control.hello(stream.hello, &err)) {
    std::fprintf(stderr, "flowpulse-bench: %s\n", err.c_str());
    return 1;
  }
  if (stream.prediction.has_value() && !control.predict(*stream.prediction, &err)) {
    std::fprintf(stderr, "flowpulse-bench: %s\n", err.c_str());
    return 1;
  }

  // Each connection reports a contiguous leaf chunk, so every leaf's
  // records stay in iteration order no matter how connections interleave.
  std::vector<WorkerResult> results{connections};
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < connections; ++c) {
    const std::uint32_t lo = daemon::shard_first_leaf(leaves, c, connections);
    const std::uint32_t hi = daemon::shard_first_leaf(leaves, c + 1, connections);
    threads.emplace_back(run_worker, std::cref(o), std::cref(stream), net::LeafId{lo}, hi - lo,
                         &results[c]);
  }
  for (std::thread& t : threads) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> latencies;
  for (const WorkerResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "flowpulse-bench: worker failed: %s\n", r.error.c_str());
      return 1;
    }
    latencies.insert(latencies.end(), r.latencies_us.begin(), r.latencies_us.end());
  }

  const auto verdict = control.verdict(&err);
  if (!verdict.has_value()) {
    std::fprintf(stderr, "flowpulse-bench: %s\n", err.c_str());
    return 1;
  }
  if (o.shutdown && !control.shutdown_server(&err)) {
    std::fprintf(stderr, "flowpulse-bench: %s\n", err.c_str());
    return 1;
  }

  const std::size_t n = latencies.size();
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  std::printf("flowpulse-bench: %zu COUNTERS over %u connections (pipeline %u) in %.3f s\n", n,
              connections, o.pipeline, secs);
  std::printf("  throughput: %.0f iters/s   latency p50: %.1f us   p99: %.1f us\n",
              secs > 0.0 ? static_cast<double>(n) / secs : 0.0, p50, p99);
  fptool::print_verdict(*verdict);
  return fptool::check_expectations(*verdict, o.expect) ? 0 : 1;
}
