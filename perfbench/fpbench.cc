// fpbench: one repetition of one end-to-end benchmark workload, in a fresh
// process, reported as one JSON line on stdout. perfbench/run.py calls it
// repeatedly, aggregates the lines and checks them; see perfbench/README.md.
//
//   fpbench ring32x16 --seed=N [--spans]
//   fpbench clos1k --seed=N [--lanes=K] [--spans]
//   fpbench daemon_ingest --seed=N --flowpulsed=PATH [--spans]
//
// The seed picks every input (sim seed, fault placement, counter noise);
// the program under test only sees the generated inputs. --spans adds the
// per-layer measurements: standalone timings of fabric build, schedule and
// prediction, and, for the daemon, the in-process engine/codec replay and
// the idle round-trip floor. Size flags (--leaves, --pods, --bytes, ...)
// exist for the benchmark's smoke test; run.py never passes them.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <latch>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collective/demand_matrix.h"
#include "collective/schedule.h"
#include "daemon/client.h"
#include "daemon/engine.h"
#include "daemon/protocol.h"
#include "daemon/verdict.h"
#include "exp/clos_scenario.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "flowpulse/analytical_model.h"
#include "flowpulse/three_level_system.h"
#include "net/fat_tree.h"
#include "net/three_level.h"

using namespace flowpulse;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line, seeded choices, output.
// ---------------------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        bad_ = true;
        continue;
      }
      a = a.substr(2);
      const std::size_t eq = a.find('=');
      if (eq == std::string::npos) {
        kv_[a] = "1";
      } else {
        kv_[a.substr(0, eq)] = a.substr(eq + 1);
      }
    }
  }
  [[nodiscard]] bool bad() const { return bad_; }
  [[nodiscard]] bool flag(const std::string& k) const { return kv_.count(k) != 0; }
  [[nodiscard]] std::string str(const std::string& k, const std::string& def) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k, std::uint64_t def) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::uint32_t u32(const std::string& k, std::uint32_t def) const {
    return static_cast<std::uint32_t>(u64(k, def));
  }

 private:
  std::map<std::string, std::string> kv_;
  bool bad_ = false;
};

/// SplitMix64: every workload input is drawn from this, keyed by --seed.
class Choice {
 public:
  explicit Choice(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) { return static_cast<std::uint32_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// One flat JSON object, written in insertion order.
class JsonLine {
 public:
  void num(const std::string& k, double v) {
    key(k);
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
  }
  void num(const std::string& k, std::uint64_t v) {
    key(k);
    os_ << v;
  }
  void num(const std::string& k, std::uint32_t v) { num(k, static_cast<std::uint64_t>(v)); }
  void str(const std::string& k, const std::string& v) {
    key(k);
    quote(v);
  }
  void arr(const std::string& k, const std::vector<double>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v[i]) ? v[i] : 0.0);
      os_ << (i ? "," : "") << buf;
    }
    os_ << ']';
  }
  void strs(const std::string& k, const std::vector<std::string>& v) {
    key(k);
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os_ << ',';
      quote(v[i]);
    }
    os_ << ']';
  }
  void print() const { std::printf("{%s}\n", os_.str().c_str()); }

 private:
  void key(const std::string& k) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << k << "\":";
  }
  void quote(const std::string& v) {
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
  }
  std::ostringstream os_;
  bool first_ = true;
};

/// Correctness gate of one repetition: every check counts as one attempted
/// operation; failures are listed by name. `ops_*` add the workload's own
/// operations (the daemon's frames and queries) to the error rate.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failed.push_back(what);
  }
  void emit(JsonLine& j, std::uint64_t ops_attempted = 0, std::uint64_t ops_failed = 0) const {
    j.num("ops_attempted", attempted + ops_attempted);
    j.num("ops_failed", static_cast<std::uint64_t>(failed.size()) + ops_failed);
    j.strs("failures", failed);
  }
};

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Alerting (row × iteration × port) checks, split by injected vs not.
struct AlertTally {
  std::uint64_t checks = 0;           ///< every (row, iteration, port) judged
  std::uint64_t alerts = 0;           ///< alerting ones
  std::uint64_t clean_checks = 0;     ///< ... on ports with no injected fault
  std::uint64_t false_alarms = 0;     ///< alerting ones among those
  std::optional<std::uint32_t> first_injected_alert;  ///< earliest iteration

  [[nodiscard]] double false_alarm_rate() const {
    return clean_checks == 0 ? 0.0
                             : static_cast<double>(false_alarms) /
                                   static_cast<double>(clean_checks);
  }
};

template <typename IsInjected>
void tally(const std::vector<fp::DetectionResult>& results, std::uint32_t ports,
           IsInjected is_injected, AlertTally* t) {
  for (const fp::DetectionResult& r : results) {
    t->checks += ports;
    std::uint32_t injected_ports = 0;
    for (std::uint32_t p = 0; p < ports; ++p) injected_ports += is_injected(r.leaf, p) ? 1 : 0;
    t->clean_checks += ports - injected_ports;
    for (const fp::PortAlert& a : r.alerts) {
      ++t->alerts;
      if (is_injected(r.leaf, a.uplink.v())) {
        if (!t->first_injected_alert.has_value() || r.iteration.v() < *t->first_injected_alert) {
          t->first_injected_alert = r.iteration.v();
        }
      } else {
        ++t->false_alarms;
      }
    }
  }
}

/// The injected port stands out in every judged iteration of its row: it
/// alerts, and its deviation is the row's largest and above every other
/// alerting port's. This localizes the fault even when clean ports of
/// the same row alert as well. `*injected_dev` and `*other_dev` get the last
/// such row's two deviations, for information.
bool stands_out(const std::vector<fp::DetectionResult>& results, net::LeafId row,
                std::uint32_t port, double* injected_dev, double* other_dev) {
  bool judged = false;
  for (const fp::DetectionResult& r : results) {
    if (r.leaf != row) continue;
    double injected = -1.0;
    double other = 0.0;
    for (const fp::PortAlert& a : r.alerts) {
      if (a.uplink.v() == port) {
        injected = a.rel_dev;
      } else {
        other = std::max(other, a.rel_dev);
      }
    }
    *injected_dev = injected;
    *other_dev = other;
    if (injected < 0.0 || injected != r.max_rel_dev || injected <= other) return false;
    judged = true;
  }
  return judged;
}

/// --setup-only: construct and destroy, timing only the constructor. run.py
/// takes the set-up median over many of these cheap cold-process samples.
template <typename Scenario, typename Config>
int setup_only(const char* workload, std::uint64_t seed, const Config& cfg) {
  const auto t0 = Clock::now();
  auto scenario = std::make_unique<Scenario>(cfg);
  const double setup_s = seconds_since(t0);
  scenario.reset();
  JsonLine j;
  j.str("workload", workload);
  j.num("seed", seed);
  j.num("setup_s", setup_s);
  Checks{}.emit(j);
  j.print();
  return 0;
}

// ---------------------------------------------------------------------------
// ring32x16: the paper's §6 scenario with a known and a silent fault.
// ---------------------------------------------------------------------------

int run_ring(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  exp::ScenarioConfig cfg;
  cfg.fabric.shape = net::TopologyInfo{a.u32("leaves", 32), a.u32("spines", 16), 1, 1};
  cfg.collective = collective::CollectiveKind::kRingReduceScatter;
  cfg.collective_bytes = core::Bytes{a.u64("bytes", 8ull << 20)};
  cfg.iterations = a.u32("iters", 12);
  cfg.lanes = 0;
  const std::uint32_t leaves = cfg.fabric.shape.leaves;
  const std::uint32_t uplinks = cfg.fabric.shape.uplinks_per_leaf();

  Choice pick{seed ^ 0x72696e6733327831ull};
  const net::LeafId known_leaf{pick.below(leaves)};
  const net::UplinkIndex known_uplink{pick.below(uplinks)};
  const net::LeafId fault_leaf{(known_leaf.v() + 1 + pick.below(leaves - 1)) % leaves};
  const net::UplinkIndex fault_uplink{pick.below(uplinks)};
  // The silent fault switches on just after the third or fourth iteration
  // starts. At the default size an iteration is ≈201 µs of simulated
  // transfer plus the 10 µs compute gap; smaller sizes scale the transfer.
  const double iter_us =
      201.0 * static_cast<double>(cfg.collective_bytes.v()) / static_cast<double>(8ull << 20) +
      cfg.compute_gap.us();
  const double onset_us = (2.0 + pick.below(2)) * iter_us + 0.015 * iter_us;
  const sim::Time onset = sim::Time::picoseconds(static_cast<std::int64_t>(onset_us * 1e6));
  cfg.seed = pick.next();

  cfg.preexisting.emplace_back(known_leaf, known_uplink);
  exp::NewFault f;
  f.leaf = fault_leaf;
  f.uplink = fault_uplink;
  f.where = exp::NewFault::Where::kDownlink;
  // 5%, not 2%: a leaf receives ≈124 packets per port per iteration, so a
  // 2% drop (≈2.5 packets) misses the 1% threshold often enough that the
  // "alerts within one iteration of onset" gate would fail on some seeds.
  f.spec = net::FaultSpec::random_drop(0.05, onset);
  cfg.new_faults.push_back(f);
  cfg.mitigation.enabled = true;
  cfg.mitigation.debounce_iterations = 2;
  cfg.mitigation.settle_iterations = 1;
  cfg.mitigation.probation_iterations = 2;

  if (a.flag("setup-only")) return setup_only<exp::Scenario>("ring32x16", seed, cfg);
  JsonLine j;
  j.str("workload", "ring32x16");
  j.num("seed", seed);

  if (a.flag("spans")) {
    // Standalone calls into exp/net/collective/fp with this workload's
    // inputs: what the scenario constructor spends on each.
    sim::Simulator s{cfg.seed};
    auto t0 = Clock::now();
    net::FatTreeConfig fc = cfg.fabric;
    fc.seed = cfg.seed;
    auto fabric = std::make_unique<net::FatTree>(s, fc);
    fabric->disconnect_known(known_leaf, known_uplink);
    j.num("exp.fabric_build_s", seconds_since(t0));
    t0 = Clock::now();
    const collective::CommSchedule sched =
        exp::make_schedule(cfg.collective, cfg.fabric.shape, cfg.collective_bytes);
    const collective::DemandMatrix demand = collective::DemandMatrix::from_schedule(
        sched, exp::all_hosts_ring(cfg.fabric.shape), cfg.fabric.shape.num_hosts());
    j.num("exp.schedule_s", seconds_since(t0));
    t0 = Clock::now();
    const fp::AnalyticalModel model{cfg.fabric.shape, cfg.transport.mtu_payload,
                                    net::kHeaderBytes};
    (void)model.predict(demand, fabric->routing());
    j.num("fp.predict_s", seconds_since(t0));
  }

  auto t0 = Clock::now();
  auto scenario = std::make_unique<exp::Scenario>(cfg);
  const double setup_s = seconds_since(t0);

  std::vector<Clock::time_point> hooks;
  hooks.reserve(cfg.iterations);
  scenario->runner().add_iteration_hook(
      [&hooks](net::IterIndex, sim::Time, sim::Time) { hooks.push_back(Clock::now()); });

  const auto run_start = Clock::now();
  exp::ScenarioResult r = scenario->run();
  const double run_s = seconds_since(run_start);
  std::vector<double> iter_sim_us;
  for (const sim::Time d : scenario->runner().iteration_durations()) iter_sim_us.push_back(d.us());

  t0 = Clock::now();
  scenario.reset();
  const double teardown_s = seconds_since(t0);

  std::vector<double> iter_host_ms;
  Clock::time_point prev = run_start;
  for (const Clock::time_point t : hooks) {
    iter_host_ms.push_back(std::chrono::duration<double, std::milli>(t - prev).count());
    prev = t;
  }

  // Detection quality against ground truth.
  const auto is_injected = [&](net::LeafId leaf, std::uint32_t port) {
    return leaf == fault_leaf && port == fault_uplink.v();
  };
  AlertTally t;
  tally(r.detections, uplinks, is_injected, &t);
  std::optional<std::uint32_t> onset_iter;
  for (std::size_t i = 0; i < r.iter_fault_active.size(); ++i) {
    if (r.iter_fault_active[i] != 0) {
      onset_iter = static_cast<std::uint32_t>(i);
      break;
    }
  }
  bool known_alerted = false;
  std::vector<std::string> false_alarms;
  for (const fp::DetectionResult& d : r.detections) {
    for (const fp::PortAlert& al : d.alerts) {
      known_alerted = known_alerted || (d.leaf == known_leaf && al.uplink == known_uplink);
      if (!is_injected(d.leaf, al.uplink.v())) {
        false_alarms.push_back("leaf " + std::to_string(d.leaf.v()) + " uplink " +
                               std::to_string(al.uplink.v()) + " iteration " +
                               std::to_string(d.iteration.v()) + " rel_dev " +
                               std::to_string(al.rel_dev));
      }
    }
  }
  std::optional<std::uint32_t> quarantine_iter;  // of the injected link, the first time
  for (const ctrl::MitigationEvent& e : r.mitigation_events) {
    if (!quarantine_iter.has_value() && e.kind == ctrl::MitigationEvent::Kind::kQuarantine &&
        e.leaf == fault_leaf && e.uplink == fault_uplink) {
      quarantine_iter = e.iteration.v();
    }
  }
  const double delay =
      onset_iter.has_value() && t.first_injected_alert.has_value()
          ? static_cast<double>(*t.first_injected_alert) - static_cast<double>(*onset_iter)
          : std::nan("");

  Checks c;
  c.expect(r.iterations_completed == cfg.iterations, "ring32x16: not every iteration completed");
  c.expect(std::isfinite(delay) && std::fabs(delay) <= 1.0,
           "ring32x16: injected link did not alert within 1 iteration of its onset");
  c.expect(quarantine_iter.has_value(),
           "ring32x16: mitigation did not quarantine the injected link");
  c.expect(!known_alerted, "ring32x16: the known-disconnected link alerted");

  // The pinned-golden report hash (tests/golden_scenario.h), for information.
  r.wall_seconds = 0.0;
  const std::uint64_t hash =
      fnv1a64(exp::to_json(r) + exp::alerts_to_json(r.detections) + exp::deviations_to_csv(r) +
              exp::mitigation_to_json(r.mitigation_events, r.recovery));

  j.num("setup_s", setup_s);
  j.num("run_s", run_s);
  j.num("teardown_s", teardown_s);
  j.num("total_s", setup_s + run_s + teardown_s);
  j.num("peak_rss_mb", self_peak_rss_mb());
  j.arr("step_ms", iter_host_ms);
  j.arr("iter_sim_us", iter_sim_us);
  j.num("events", r.events);
  j.num("tx_packets", r.fabric_counters.tx_packets.v());
  j.num("tx_bytes", r.fabric_counters.tx_bytes.v());
  j.num("dropped_packets", r.fabric_counters.dropped_packets.v());
  j.num("transport.data_packets", r.transport_stats.data_packets_sent);
  j.num("transport.retx_packets", r.transport_stats.retx_packets_sent);
  j.num("transport.acks", r.transport_stats.acks_sent);
  j.num("transport.messages", r.transport_stats.messages_sent);
  j.num("fp.checks", t.checks);
  j.num("fp.alerts", t.alerts);
  j.num("fp.clean_checks", t.clean_checks);
  j.num("fp.false_alarms", t.false_alarms);
  j.strs("false_alarm_ports", false_alarms);
  j.num("false_alarm_rate", t.false_alarm_rate());
  j.num("detect_delay_iters", delay);
  j.num("ctrl.actions", static_cast<std::uint64_t>(r.mitigation_events.size()));
  j.num("ctrl.quarantine_iter",
        quarantine_iter.has_value() ? static_cast<double>(*quarantine_iter) : std::nan(""));
  j.str("report_hash", std::to_string(hash));
  c.emit(j);
  j.print();
  return 0;
}

// ---------------------------------------------------------------------------
// clos1k: the 1024-host three-level Clos with two black holes.
// ---------------------------------------------------------------------------

int run_clos(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  exp::ClosScenarioConfig cfg;
  cfg.fabric.shape.pods = a.u32("pods", 16);
  cfg.collective_bytes = core::Bytes{a.u64("bytes", 1u << 20)};
  cfg.iterations = 1;
  cfg.lanes = static_cast<std::int32_t>(a.u32("lanes", 0));
  const net::ThreeLevelInfo& shape = cfg.fabric.shape;

  Choice pick{seed ^ 0x636c6f73316b3031ull};
  const net::LeafId fault_leaf{pick.below(shape.num_leaves())};
  const std::uint32_t fault_leaf_spine = pick.below(shape.spines_per_pod);
  const std::uint32_t core_pod = pick.below(shape.pods);
  const std::uint32_t core_spine = pick.below(shape.spines_per_pod);
  const std::uint32_t core_k = pick.below(shape.cores_per_group());
  cfg.seed = pick.next();
  // Same fault kinds as the pinned 1k golden: a leaf black hole from 5 µs
  // and a core black hole from t = 0.
  cfg.leaf_faults.push_back(
      {fault_leaf, fault_leaf_spine, net::FaultSpec::black_hole(sim::Time::microseconds(5))});
  cfg.core_faults.push_back({core_pod, core_spine, core_k, net::FaultSpec::black_hole()});
  const std::uint32_t core_row = shape.pod_spine_id(core_pod, core_spine);

  if (a.flag("setup-only")) return setup_only<exp::ClosScenario>("clos1k", seed, cfg);
  JsonLine j;
  j.str("workload", "clos1k");
  j.num("seed", seed);

  if (a.flag("spans")) {
    sim::Simulator s{cfg.seed};
    auto t0 = Clock::now();
    auto fabric = std::make_unique<net::ThreeLevelFatTree>(s, cfg.fabric);
    j.num("exp.fabric_build_s", seconds_since(t0));
    t0 = Clock::now();
    const std::uint32_t hosts = fabric->num_hosts();
    const collective::CommSchedule sched =
        collective::ring_reduce_scatter(hosts, cfg.collective_bytes);
    std::vector<net::HostId> placement;
    for (const net::HostId h : core::ids<net::HostId>(hosts)) placement.push_back(h);
    const collective::DemandMatrix demand =
        collective::DemandMatrix::from_schedule(sched, placement, hosts);
    j.num("exp.schedule_s", seconds_since(t0));
    t0 = Clock::now();
    const fp::ThreeLevelAnalyticalModel model{shape, cfg.transport.mtu_payload,
                                              net::kHeaderBytes};
    (void)model.predict(demand, fabric->routing());
    j.num("fp.predict_s", seconds_since(t0));
  }

  auto t0 = Clock::now();
  auto scenario = std::make_unique<exp::ClosScenario>(cfg);
  const double setup_s = seconds_since(t0);
  const bool laned = scenario->laned();
  const auto run_start = Clock::now();
  const exp::ClosScenarioResult r = scenario->run();
  const double run_s = seconds_since(run_start);
  // Every check, faulty or not (the result struct keeps only faulty ones).
  const std::vector<fp::DetectionResult> leaf_results = scenario->flowpulse().leaf_results();
  const std::vector<fp::DetectionResult> spine_results = scenario->flowpulse().spine_results();
  t0 = Clock::now();
  scenario.reset();
  const double teardown_s = seconds_since(t0);

  AlertTally leaf_t;
  tally(leaf_results, shape.spines_per_pod,
        [&](net::LeafId row, std::uint32_t port) {
          return row == fault_leaf && port == fault_leaf_spine;
        },
        &leaf_t);
  AlertTally spine_t;
  tally(spine_results, shape.cores_per_group(),
        [&](net::LeafId row, std::uint32_t port) { return row.v() == core_row && port == core_k; },
        &spine_t);
  AlertTally all;
  all.checks = leaf_t.checks + spine_t.checks;
  all.alerts = leaf_t.alerts + spine_t.alerts;
  all.clean_checks = leaf_t.clean_checks + spine_t.clean_checks;
  all.false_alarms = leaf_t.false_alarms + spine_t.false_alarms;

  Checks c;
  // ClosScenario exposes no collective runner; an iteration counts as
  // complete when every leaf and every pod-spine finalized and judged it.
  c.expect(leaf_results.size() == static_cast<std::size_t>(shape.num_leaves()) * cfg.iterations &&
               spine_results.size() ==
                   static_cast<std::size_t>(shape.num_pod_spines()) * cfg.iterations,
           "clos1k: not every iteration completed");
  // Every leaf and pod-spine row alerts at seed (see README.md), so "the
  // injected link alerted" alone would pass trivially: the injected port
  // must be the one that stands out in its row.
  double leaf_dev = 0.0, leaf_other = 0.0, core_dev = 0.0, core_other = 0.0;
  c.expect(stands_out(leaf_results, fault_leaf, fault_leaf_spine, &leaf_dev, &leaf_other),
           "clos1k: the injected leaf link does not stand out in its row");
  c.expect(stands_out(spine_results, net::LeafId{core_row}, core_k, &core_dev, &core_other),
           "clos1k: the injected core link does not stand out in its row");
  // Both black holes are active from iteration 0.
  const double delay =
      leaf_t.first_injected_alert.has_value() && spine_t.first_injected_alert.has_value()
          ? static_cast<double>(std::max(*leaf_t.first_injected_alert,
                                         *spine_t.first_injected_alert))
          : std::nan("");

  j.num("laned", static_cast<std::uint64_t>(laned ? 1 : 0));
  j.num("setup_s", setup_s);
  j.num("run_s", run_s);
  j.num("teardown_s", teardown_s);
  j.num("total_s", setup_s + run_s + teardown_s);
  j.num("peak_rss_mb", self_peak_rss_mb());
  // ClosScenario exposes no iteration hook: one step is one run() divided
  // evenly over its iterations.
  j.arr("step_ms", std::vector<double>(cfg.iterations, run_s * 1e3 / cfg.iterations));
  j.num("events", r.events);
  j.num("tx_packets", r.fabric_counters.tx_packets.v());
  j.num("tx_bytes", r.fabric_counters.tx_bytes.v());
  j.num("dropped_packets", r.fabric_counters.dropped_packets.v());
  j.num("fp.checks", all.checks);
  j.num("fp.alerts", all.alerts);
  j.num("fp.clean_checks", all.clean_checks);
  j.num("fp.false_alarms", all.false_alarms);
  j.num("false_alarm_rate", all.false_alarm_rate());
  j.num("detect_delay_iters", delay);
  j.arr("injected_rel_dev", {leaf_dev, core_dev});
  j.arr("other_rel_dev", {leaf_other, core_other});
  j.str("report_hash", std::to_string(exp::clos_report_hash(r)));
  c.emit(j);
  j.print();
  return 0;
}

// ---------------------------------------------------------------------------
// daemon_ingest: a real flowpulsed on loopback, driven by this process.
// ---------------------------------------------------------------------------

/// The generated counter stream: a uniform all-to-all baseline with seeded
/// per-sender spray noise and a shortfall on one link from one iteration on.
/// Frames are encoded up front for `kTemplates` noise patterns per leaf;
/// sending copies a template and stamps the iteration number into it.
struct CounterStream {
  static constexpr std::uint32_t kTemplates = 64;

  net::TopologyInfo topo{32, 16, 1, 1};
  net::LeafId fault_leaf{};
  net::UplinkIndex fault_uplink{};
  std::uint32_t onset = 0;
  double shortfall = 0.05;
  fp::PortLoadMap prediction{1, 1};
  std::vector<std::vector<std::uint8_t>> clean;   ///< [template * leaves + leaf]
  std::vector<std::vector<std::uint8_t>> faulty;  ///< [template], fault_leaf only
  std::size_t iter_offset = 0;                    ///< byte offset of the iteration field

  [[nodiscard]] const std::vector<std::uint8_t>& frame_template(std::uint32_t leaf,
                                                                std::uint32_t it) const {
    const std::uint32_t k = it % kTemplates;
    if (leaf == fault_leaf.v() && it >= onset) return faulty[k];
    return clean[static_cast<std::size_t>(k) * topo.leaves + leaf];
  }
  /// Append the COUNTERS frame of (leaf, iteration) to `out`.
  void append_frame(std::uint32_t leaf, std::uint32_t it, std::vector<std::uint8_t>& out) const {
    const std::vector<std::uint8_t>& t = frame_template(leaf, it);
    const std::size_t base = out.size();
    out.insert(out.end(), t.begin(), t.end());
    for (std::size_t b = 0; b < 4; ++b) {
      out[base + iter_offset + b] = static_cast<std::uint8_t>(it >> (8 * b));
    }
  }
};

CounterStream make_stream(std::uint64_t seed, std::uint32_t leaves, std::uint32_t spines,
                          std::uint32_t onset_lo, std::uint32_t onset_span) {
  CounterStream s;
  s.topo = net::TopologyInfo{leaves, spines, 1, 1};
  Choice pick{seed ^ 0x6461656d6f6e3031ull};
  s.fault_leaf = net::LeafId{pick.below(leaves)};
  s.fault_uplink = net::UplinkIndex{pick.below(s.topo.uplinks_per_leaf())};
  s.onset = onset_lo + pick.below(onset_span);
  const std::uint32_t uplinks = s.topo.uplinks_per_leaf();
  const double per_src = 1.5e6 / static_cast<double>(leaves - 1);
  constexpr double kNoise = 0.002;  // ±0.2% per sender: far below the detector's 0.5% floor

  s.prediction = fp::PortLoadMap{leaves, uplinks};
  for (std::uint32_t l = 0; l < leaves; ++l) {
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      for (std::uint32_t src = 0; src < leaves; ++src) {
        if (src != l) s.prediction.add(net::LeafId{l}, net::UplinkIndex{u}, net::LeafId{src}, per_src);
      }
    }
  }
  auto record = [&](std::uint32_t l, std::uint32_t it, bool faulty) {
    fp::IterationRecord rec;
    rec.leaf = net::LeafId{l};
    rec.iteration = net::IterIndex{it};
    rec.bytes.assign(uplinks, 0.0);
    rec.by_src.assign(uplinks, std::vector<double>(leaves, 0.0));
    for (std::uint32_t u = 0; u < uplinks; ++u) {
      const double scale = faulty && u == s.fault_uplink.v() ? 1.0 - s.shortfall : 1.0;
      for (std::uint32_t src = 0; src < leaves; ++src) {
        if (src == l) continue;
        const double v = per_src * scale * (1.0 + kNoise * (2.0 * pick.unit() - 1.0));
        rec.by_src[u][src] = v;
        rec.bytes[u] += v;
      }
    }
    rec.packets = uplinks;
    return rec;
  };
  for (std::uint32_t k = 0; k < CounterStream::kTemplates; ++k) {
    for (std::uint32_t l = 0; l < leaves; ++l) {
      s.clean.push_back(daemon::encode_counters(record(l, k, false)));
    }
    s.faulty.push_back(daemon::encode_counters(record(s.fault_leaf.v(), k, true)));
  }
  // Locate the iteration field: the only bytes that differ between two
  // encodings of one record under different iteration numbers.
  fp::IterationRecord probe = record(0, 0, false);
  std::vector<std::uint8_t> e0 = daemon::encode_counters(probe);
  probe.iteration = net::IterIndex{0x01020304u};
  const std::vector<std::uint8_t> e1 = daemon::encode_counters(probe);
  std::size_t off = 0;
  while (off < e0.size() && e0[off] == e1[off]) ++off;
  s.iter_offset = off;
  return s;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pin the calling thread to one CPU.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// flowpulsed as a child process; killed and reaped on destruction.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (out_ >= 0) ::close(out_);
  }

  /// fork+exec; blocks until the daemon prints its listening line.
  bool spawn(const std::string& path, const net::TopologyInfo& topo, int cpu,
             std::string* err) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    const std::string leaves = "--leaves=" + std::to_string(topo.leaves);
    const std::string spines = "--spines=" + std::to_string(topo.spines);
    pid_ = ::fork();
    if (pid_ < 0) {
      *err = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);  // never outlive the generator
      if (cpu >= 0) pin_to(cpu);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const char* argv[] = {path.c_str(), leaves.c_str(), spines.c_str(), "--port=0",
                            "--detector=streaming", nullptr};
      ::execv(path.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    std::string line;
    char ch = 0;
    while (::read(out_, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    // "flowpulsed listening on 127.0.0.1:PORT (shard ..."
    const std::size_t colon = line.find(':');
    if (line.rfind("flowpulsed listening on", 0) != 0 || colon == std::string::npos) {
      *err = "flowpulsed did not start: '" + line + "'";
      return false;
    }
    port_ = static_cast<std::uint16_t>(std::strtoul(line.c_str() + colon + 1, nullptr, 10));
    return port_ != 0;
  }

  /// Wait for a clean exit (after SHUTDOWN); false on timeout or failure.
  bool wait_exit(double timeout_s) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < timeout_s) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  /// utime + stime of the daemon, in seconds.
  [[nodiscard]] double cpu_seconds() const {
    std::ifstream in{"/proc/" + std::to_string(pid_) + "/stat"};
    std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t rp = all.rfind(')');
    if (rp == std::string::npos) return 0.0;
    std::istringstream fields{all.substr(rp + 2)};
    std::string f;
    double ticks = 0.0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int i = 3; i <= 15 && (fields >> f); ++i) {
      if (i >= 14) ticks += std::strtod(f.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// VmHWM of the daemon, in MiB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in{"/proc/" + std::to_string(pid_) + "/status"};
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

void set_recv_timeout(int fd, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// Sleep until `due`. No spinning: the generator's threads would take
/// cores from the daemon. Callers set a 1 µs timer slack (see main).
void wait_until(Clock::time_point due) { std::this_thread::sleep_until(due); }

double micros(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

struct ReporterResult {
  std::string error;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::uint64_t rejected = 0;
  std::vector<double> open_latency_us;  ///< ack time − due time
  std::vector<double> lag_us;           ///< send time − due time
};

/// One reporter connection owning leaves [lo, hi). Closed loop over
/// iterations [0, closed_iters) with `depth` COUNTERS in flight, a barrier,
/// then open loop: each later iteration's burst is due at open_start +
/// k / rate.
struct ReporterPlan {
  std::uint32_t lo = 0, hi = 0;
  std::uint32_t closed_iters = 0, open_iters = 0;
  std::uint32_t depth = 32;
  double rate = 500.0;
  int cpu = -1;  ///< pin the reporter thread here (-1: do not pin)
};

/// Phase hand-offs between the control thread and the reporters. Latches,
/// not polling: no generator thread wakes up while the daemon works.
struct Phases {
  explicit Phases(std::ptrdiff_t reporters) : ready{reporters}, closed_done{reporters} {}
  std::latch ready;                ///< every reporter connected and registered
  std::latch go_closed{1};
  std::latch closed_done;          ///< every reporter finished the closed loop
  std::latch go_open{1};
  Clock::time_point open_start{};  ///< written before go_open opens
};

bool expect_ok_reply(daemon::Client& client, ReporterResult* res) {
  std::vector<std::uint8_t> reply;
  std::string err;
  if (!client.recv_reply(reply, &err)) {
    res->error = "no reply to COUNTERS: " + err;
    return false;
  }
  ++res->acked;
  if (reply.empty() || static_cast<daemon::Op>(reply[0]) != daemon::Op::kOk) ++res->rejected;
  return true;
}

void run_reporter(const CounterStream& stream, std::uint16_t port, const ReporterPlan& plan,
                  Phases* phases, ReporterResult* res) {
  if (plan.cpu >= 0) pin_to(plan.cpu);
  daemon::Client client;
  std::string err;
  daemon::Hello hello;
  hello.topo = stream.topo;
  hello.first_leaf = net::LeafId{plan.lo};
  hello.leaf_count = plan.hi - plan.lo;
  const bool connected = client.connect_to("127.0.0.1", port, &err) && client.hello(hello, &err);
  if (connected) set_recv_timeout(client.fd(), 20);
  if (!connected) res->error = "reporter connect/HELLO: " + err;
  phases->ready.count_down();
  phases->go_closed.wait();

  std::vector<std::uint8_t> frame;
  // Closed loop: iteration-major over this connection's leaves. Once half
  // the window has drained, refill it with one write (redis-benchmark
  // style pipelining), so the generator's syscalls do not cap the rate.
  if (connected) {
    const std::uint32_t width = plan.hi - plan.lo;
    const std::uint64_t total = static_cast<std::uint64_t>(plan.closed_iters) * width;
    std::uint64_t next = 0;
    bool ok = true;
    while (ok && res->acked < total) {
      if (next < total && next - res->acked <= plan.depth / 2) {
        frame.clear();
        for (; next < total && next - res->acked < plan.depth; ++next) {
          stream.append_frame(plan.lo + static_cast<std::uint32_t>(next % width),
                              static_cast<std::uint32_t>(next / width), frame);
        }
        if (!client.send_frames(frame, &err)) {
          res->error = "send COUNTERS: " + err;
          break;
        }
        res->sent = next;
      }
      ok = expect_ok_reply(client, res);
    }
  }
  phases->closed_done.count_down();
  phases->go_open.wait();

  if (connected && res->error.empty()) {
    res->open_latency_us.reserve(static_cast<std::size_t>(plan.open_iters) * (plan.hi - plan.lo));
    for (std::uint32_t k = 0; k < plan.open_iters; ++k) {
      const Clock::time_point due =
          phases->open_start + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * k / plan.rate));
      const std::uint32_t it = plan.closed_iters + k;
      frame.clear();
      for (std::uint32_t leaf = plan.lo; leaf < plan.hi; ++leaf) stream.append_frame(leaf, it, frame);
      wait_until(due);
      res->lag_us.push_back(micros(Clock::now() - due));
      if (!client.send_frames(frame, &err)) {
        res->error = "send COUNTERS: " + err;
        break;
      }
      res->sent += plan.hi - plan.lo;
      bool ok = true;
      for (std::uint32_t leaf = plan.lo; ok && leaf < plan.hi; ++leaf) {
        ok = expect_ok_reply(client, res);
        if (ok) res->open_latency_us.push_back(micros(Clock::now() - due));
      }
      if (!ok) break;
    }
  }
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Query round trip (VERDICT or STATS), checked for the right reply opcode.
bool query(daemon::Client& control, daemon::Op op, std::string* err) {
  const std::vector<std::uint8_t> req = daemon::encode_simple(op);
  std::vector<std::uint8_t> reply;
  if (!control.send_frame(req, err) || !control.recv_reply(reply, err)) return false;
  const daemon::Op want = op == daemon::Op::kVerdict ? daemon::Op::kVerdictReply
                                                     : daemon::Op::kStatsReply;
  return !reply.empty() && static_cast<daemon::Op>(reply[0]) == want;
}

/// In-process replay of the closed-loop frames through the engine and the
/// codec: the daemon's per-frame work without sockets.
void engine_replay(const CounterStream& stream, std::uint32_t iters, JsonLine& j, Checks& c) {
  daemon::EngineConfig ec;
  ec.topo = stream.topo;
  ec.system.detector = fp::DetectorKind::kStreaming;
  daemon::DaemonEngine engine{ec};
  daemon::Session session;
  daemon::Hello hello;
  hello.topo = stream.topo;
  hello.leaf_count = stream.topo.leaves;
  auto payload = [](const std::vector<std::uint8_t>& frame) {
    return std::span<const std::uint8_t>{frame.data() + 4, frame.size() - 4};
  };
  (void)engine.on_frame(session, payload(daemon::encode_hello(hello)));
  (void)engine.on_frame(session, payload(daemon::encode_predict(stream.prediction)));

  std::vector<std::uint8_t> frame;
  Clock::duration engine_time{};
  Clock::duration decode_time{};
  std::uint64_t frames = 0, bad = 0;
  for (std::uint32_t it = 0; it < iters; ++it) {
    for (std::uint32_t leaf = 0; leaf < stream.topo.leaves; ++leaf) {
      frame.clear();
      stream.append_frame(leaf, it, frame);
      const auto p = payload(frame);
      auto t0 = Clock::now();
      const std::optional<fp::IterationRecord> rec = daemon::decode_counters(p.subspan(1));
      decode_time += Clock::now() - t0;
      t0 = Clock::now();
      const daemon::EngineReply reply = engine.on_frame(session, p);
      engine_time += Clock::now() - t0;
      ++frames;
      bad += (!rec.has_value() || reply.bytes.size() < 5 ||
              static_cast<daemon::Op>(reply.bytes[4]) != daemon::Op::kOk)
                 ? 1
                 : 0;
    }
  }
  j.num("daemon.engine_us_per_frame", micros(engine_time) / static_cast<double>(frames));
  j.num("daemon.decode_us_per_frame", micros(decode_time) / static_cast<double>(frames));
  c.expect(bad == 0, "daemon_ingest: the in-process engine replay rejected frames");
}

int run_daemon(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 1);
  const std::string flowpulsed = a.str("flowpulsed", "");
  if (flowpulsed.empty()) {
    std::fprintf(stderr, "fpbench: daemon_ingest needs --flowpulsed=PATH\n");
    return 2;
  }
  // A closed-loop phase of about a second: long enough to average the
  // host's sub-second jitter out of total_s.
  const std::uint32_t closed_iters = a.u32("closed-iters", 4000);
  const std::uint32_t open_iters = a.u32("open-iters", 500);
  // Open loop: 500 iterations/s, about a sixth of what the daemon
  // sustains, and 100 VERDICT/STATS queries/s.
  constexpr double rate = 500.0;
  constexpr double query_rate = 100.0;
  // The daemon gets a CPU of its own and each reporter another, when there
  // are enough: at most nproc threads and processes busy at once.
  const std::vector<int> cpus = allowed_cpus();
  const std::uint32_t ncpu = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(cpus.size()));
  const std::uint32_t reporters =
      std::min<std::uint32_t>(3, std::max(1u, ncpu - 1));
  const bool pin = ncpu >= reporters + 1;

  // Onset early in the open-loop phase: the closed loop measures clean
  // ingest, and the verdict the queries fetch stays small.
  const CounterStream stream = make_stream(seed, a.u32("leaves", 32), a.u32("spines", 16),
                                           closed_iters + 8, std::max(1u, open_iters / 16));
  const std::uint32_t leaves = stream.topo.leaves;

  JsonLine j;
  j.str("workload", "daemon_ingest");
  j.num("seed", seed);
  Checks c;
  std::string err;

  // Set-up: spawn → HELLO → PREDICT acknowledged.
  const auto t_spawn = Clock::now();
  DaemonProcess proc;
  daemon::Client control;
  daemon::Hello hello;
  hello.topo = stream.topo;
  hello.leaf_count = leaves;
  if (!proc.spawn(flowpulsed, stream.topo, pin ? cpus[0] : -1, &err) ||
      !control.connect_to("127.0.0.1", proc.port(), &err) || !control.hello(hello, &err) ||
      !control.predict(stream.prediction, &err)) {
    std::fprintf(stderr, "fpbench: daemon set-up failed: %s\n", err.c_str());
    return 1;
  }
  const double setup_s = seconds_since(t_spawn);
  set_recv_timeout(control.fd(), 20);
  if (a.flag("setup-only")) {
    j.num("setup_s", setup_s);
    c.expect(control.shutdown_server(&err) && proc.wait_exit(20.0),
             "daemon_ingest: daemon did not shut down cleanly");
    c.emit(j);
    j.print();
    return 0;
  }

  if (a.flag("spans")) {
    std::vector<double> rtt;
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      if (!query(control, daemon::Op::kStats, &err)) break;
      rtt.push_back(micros(Clock::now() - t0));
    }
    j.num("daemon.rtt_floor_us", percentile(rtt, 0.5));
  }

  std::vector<ReporterPlan> plans(reporters);
  for (std::uint32_t r = 0; r < reporters; ++r) {
    plans[r].lo = daemon::shard_first_leaf(leaves, r, reporters);
    plans[r].hi = daemon::shard_first_leaf(leaves, r + 1, reporters);
    plans[r].closed_iters = closed_iters;
    plans[r].open_iters = open_iters;
    plans[r].rate = rate;
    plans[r].cpu = pin ? cpus[1 + r] : -1;
  }
  std::vector<ReporterResult> results(reporters);
  Phases phases{static_cast<std::ptrdiff_t>(reporters)};
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < reporters; ++r) {
    threads.emplace_back(run_reporter, std::cref(stream), proc.port(), std::cref(plans[r]),
                         &phases, &results[r]);
  }
  phases.ready.wait();

  // Closed loop.
  const double cpu0 = proc.cpu_seconds();
  const auto closed_start = Clock::now();
  phases.go_closed.count_down();
  phases.closed_done.wait();
  const double closed_s = seconds_since(closed_start);
  const double cpu1 = proc.cpu_seconds();
  std::uint64_t closed_frames = 0;
  for (const ReporterResult& r : results) closed_frames += r.acked;

  // Open loop, with VERDICT/STATS queries from the control connection.
  const Clock::time_point open_start = Clock::now() + std::chrono::milliseconds(5);
  phases.open_start = open_start;
  phases.go_open.count_down();
  const double open_span_s = static_cast<double>(open_iters) / rate;
  const std::uint32_t queries = static_cast<std::uint32_t>(open_span_s * query_rate);
  std::vector<double> query_us;
  std::uint64_t query_failed = 0;
  for (std::uint32_t q = 0; q < queries; ++q) {
    const Clock::time_point due =
        open_start + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * q / query_rate));
    wait_until(due);
    if (query(control, q % 2 == 0 ? daemon::Op::kVerdict : daemon::Op::kStats, &err)) {
      query_us.push_back(micros(Clock::now() - due));
    } else {
      ++query_failed;
    }
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> open_us, lag_us;
  std::uint64_t sent = 0, acked = 0, rejected = 0;
  for (const ReporterResult& r : results) {
    if (!r.error.empty()) std::fprintf(stderr, "fpbench: %s\n", r.error.c_str());
    c.expect(r.error.empty(), "daemon_ingest: reporter failed: " + r.error);
    open_us.insert(open_us.end(), r.open_latency_us.begin(), r.open_latency_us.end());
    lag_us.insert(lag_us.end(), r.lag_us.begin(), r.lag_us.end());
    sent += r.sent;
    acked += r.acked;
    rejected += r.rejected;
  }

  // Final verdict and daemon-side counters.
  const std::optional<daemon::FabricVerdict> verdict = control.verdict(&err);
  const std::optional<daemon::StatsSnapshot> stats = control.stats(&err);
  const double daemon_rss = proc.peak_rss_mb();
  const bool shut = control.shutdown_server(&err) && proc.wait_exit(20.0);

  const std::uint64_t expected = static_cast<std::uint64_t>(closed_iters + open_iters) * leaves;
  // --expect-leaf-offset=K expects the fault K leaves away from where it
  // was injected: the smoke test's deliberately wrong expectation.
  const net::LinkId injected = net::LinkId::of(
      net::LeafId{(stream.fault_leaf.v() + a.u32("expect-leaf-offset", 0)) % leaves},
      stream.fault_uplink);
  c.expect(sent == expected && acked == sent, "daemon_ingest: not every COUNTERS was answered");
  c.expect(rejected == 0, "daemon_ingest: COUNTERS rejected");
  c.expect(query_failed == 0, "daemon_ingest: VERDICT/STATS query failed");
  c.expect(verdict.has_value() && verdict->flagged &&
               verdict->first_faulty_iteration.v() == stream.onset &&
               verdict->suspect_links == std::vector<net::LinkId>{injected},
           "daemon_ingest: verdict does not name exactly the injected link at its onset");
  c.expect(stats.has_value() && stats->counters_ingested == expected &&
               stats->counters_rejected == 0 && stats->errors == 0,
           "daemon_ingest: daemon STATS show rejected or missing COUNTERS");
  c.expect(shut, "daemon_ingest: daemon did not shut down cleanly");

  std::uint64_t alerts = 0, false_alarms = 0;
  std::optional<std::uint32_t> first_injected;
  if (verdict.has_value()) {
    for (const daemon::VerdictAlert& al : verdict->alerts) {
      ++alerts;
      if (al.leaf == stream.fault_leaf && al.uplink == stream.fault_uplink) {
        if (!first_injected.has_value()) first_injected = al.iteration.v();
      } else {
        ++false_alarms;
      }
    }
  }
  const std::uint32_t iters = closed_iters + open_iters;
  const std::uint64_t checks = static_cast<std::uint64_t>(iters) * leaves *
                               stream.topo.uplinks_per_leaf();
  const std::uint64_t clean_checks = checks - iters;

  j.num("setup_s", setup_s);
  j.num("total_s", closed_s);
  j.num("peak_rss_mb", daemon_rss);
  j.num("ingest_rps", static_cast<double>(closed_frames) / closed_s);
  j.arr("step_ms", [&] {
    std::vector<double> ms;
    ms.reserve(open_us.size());
    for (const double us : open_us) ms.push_back(us / 1e3);
    return ms;
  }());
  j.num("ingest_p99_us", percentile(open_us, 0.99));
  j.num("query_p99_us", percentile(query_us, 0.99));
  std::vector<double> query_ms;
  for (const double us : query_us) query_ms.push_back(us / 1e3);
  j.arr("query_ms", query_ms);
  j.num("daemon.gen_lag_p99_us", percentile(lag_us, 0.99));
  j.num("daemon.server_cpu_us_per_frame",
        closed_frames == 0 ? 0.0 : (cpu1 - cpu0) * 1e6 / static_cast<double>(closed_frames));
  j.num("daemon.server_busy", (cpu1 - cpu0) / closed_s);
  j.num("daemon.rejected", stats.has_value() ? stats->counters_rejected : rejected);
  j.num("daemon.errors", stats.has_value() ? stats->errors : 0);
  j.num("daemon.bytes_in_per_frame",
        stats.has_value() && stats->frames_in > 0
            ? static_cast<double>(stats->bytes_in.v()) / static_cast<double>(stats->frames_in)
            : 0.0);
  j.num("fp.checks", checks);
  j.num("fp.alerts", alerts);
  j.num("fp.clean_checks", clean_checks);
  j.num("fp.false_alarms", false_alarms);
  j.num("false_alarm_rate",
        static_cast<double>(false_alarms) / static_cast<double>(clean_checks));
  j.num("detect_delay_iters", first_injected.has_value()
                                  ? static_cast<double>(*first_injected) - stream.onset
                                  : std::nan(""));
  if (a.flag("spans")) engine_replay(stream, std::min(closed_iters, 256u), j, c);
  // Every frame and query is an operation; unanswered, rejected or failed
  // ones count against the error rate besides the checks above.
  c.emit(j, sent + queries, (sent - std::min(sent, acked)) + rejected + query_failed);
  j.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: fpbench ring32x16|clos1k|daemon_ingest --seed=N [...]\n");
    return 2;
  }
  const std::string workload = argv[1];
  const Args args{argc, argv};
  if (args.bad()) {
    std::fprintf(stderr, "fpbench: flags are --key=value\n");
    return 2;
  }
  // Open-loop sends wake at their due time, not up to 50 µs after it.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  if (workload == "ring32x16") return run_ring(args);
  if (workload == "clos1k") return run_clos(args);
  if (workload == "daemon_ingest") return run_daemon(args);
  std::fprintf(stderr, "fpbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
