#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fat_tree.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace flowpulse::baseline {

/// Counter-polling baseline (the telemetry pipeline the paper's §1/§3 says
/// silent faults evade): periodically scrape every link's error counters
/// and flag links whose counted drop rate over the window exceeds
/// `kDropRateThreshold`.
///
/// Two failure modes are modeled faithfully:
///  1. silent faults never move the error counters
///     (FaultSpec::visible_to_counters == false), so the scraper sees a
///     perfectly healthy fabric while packets die;
///  2. even for visible faults, detection latency is one polling period —
///     centralized collection in a 100k-GPU fabric polls slowly.
struct CounterScraperConfig {
  sim::Time period = sim::Time::microseconds(100);
};

class CounterScraper {
 public:
  /// Counted drops / tx over the window above which a link alarms.
  static constexpr double kDropRateThreshold = 0.001;

  struct Alarm {
    sim::Time at;
    std::string link;
    double counted_drop_rate = 0.0;
  };

  CounterScraper(sim::Simulator& simulator, net::FatTree& fabric,
                 CounterScraperConfig config)
      : sim_{simulator}, fabric_{fabric}, config_{config} {}

  /// Poll from now until `horizon`.
  void start(sim::Time horizon) {
    horizon_ = horizon;
    const std::size_t links = count_links();
    last_tx_.assign(links, 0);
    last_dropped_.assign(links, 0);
    poll();
  }

  [[nodiscard]] const std::vector<Alarm>& alarms() const { return alarms_; }
  [[nodiscard]] std::uint64_t polls() const { return polls_; }

 private:
  [[nodiscard]] std::size_t count_links() const {
    const net::TopologyInfo& info = fabric_.info();
    return static_cast<std::size_t>(info.leaves) * info.uplinks_per_leaf() * 2;
  }

  void poll() {
    if (sim_.now() >= horizon_) return;
    ++polls_;
    const net::TopologyInfo& info = fabric_.info();
    std::size_t idx = 0;
    for (const net::LeafId l : core::ids<net::LeafId>(info.leaves)) {
      for (const net::UplinkIndex u : core::ids<net::UplinkIndex>(info.uplinks_per_leaf())) {
        // Alarm names label the far end with the *spine*, not the uplink
        // index (they only coincide when parallel == 1).
        // fplint: ok(raw-scalar-id): formatting-only local; the id-space
        // crossing is the explicit spine_of(u).v() on the same line
        const std::uint32_t spine = info.spine_of(u).v();
        check(fabric_.uplink_counters(l, u),
              "up:leaf" + std::to_string(l.v()) + "-spine" + std::to_string(spine), idx++);
        check(fabric_.downlink_counters(l, u),
              "down:spine" + std::to_string(spine) + "-leaf" + std::to_string(l.v()), idx++);
      }
    }
    sim_.schedule_in(config_.period, [this] { poll(); });
  }

  void check(const net::LinkCounters& counters, const std::string& name, std::size_t idx) {
    const std::uint64_t tx = counters.tx_packets.v() - last_tx_[idx];
    const std::uint64_t dropped = counters.telemetry_dropped_packets.v() - last_dropped_[idx];
    last_tx_[idx] = counters.tx_packets.v();
    last_dropped_[idx] = counters.telemetry_dropped_packets.v();
    if (tx == 0) return;
    const double rate = static_cast<double>(dropped) / static_cast<double>(tx);
    if (rate > kDropRateThreshold) {
      alarms_.push_back(Alarm{sim_.now(), name, rate});
    }
  }

  sim::Simulator& sim_;
  net::FatTree& fabric_;
  CounterScraperConfig config_;
  sim::Time horizon_ = sim::Time::zero();
  std::vector<std::uint64_t> last_tx_;
  std::vector<std::uint64_t> last_dropped_;
  std::vector<Alarm> alarms_;
  std::uint64_t polls_ = 0;
};

}  // namespace flowpulse::baseline
