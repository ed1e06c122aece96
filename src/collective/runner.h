#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "collective/schedule.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/transport_layer.h"

namespace flowpulse::collective {

/// Configuration of a repeated collective — one "training job".
struct CollectiveConfig {
  std::vector<net::HostId> hosts;  ///< rank → host placement
  CommSchedule schedule;
  /// Optional: regenerate the schedule each iteration (dynamic demand, e.g.
  /// expert-parallel AlltoAll). Overrides `schedule` when set.
  std::function<CommSchedule(std::uint32_t iteration, sim::Rng&)> schedule_generator;
  std::uint32_t iterations = 10;
  /// Simulated compute phase between iterations.
  sim::Time compute_gap = sim::Time::microseconds(5);
  /// Straggler model: each rank delays its iteration start by an
  /// independent uniform draw in [0, max_jitter).
  sim::Time max_jitter = sim::Time::zero();
  net::Priority priority = net::Priority::kCollective;
  std::uint16_t job_id = 0;
  /// Tag packets with the FlowPulse collective sentinel (§5.1). Disable for
  /// unmeasured background jobs.
  bool tag_flow = true;
  /// Run double-precision ring algebra alongside the packets and verify the
  /// reduction result each iteration.
  bool validate_data = false;
  /// Chain iterations automatically: finishing iteration k schedules k+1
  /// after `compute_gap`. The hybrid-fidelity engine disables this and
  /// drives iterations one at a time via start_iteration(), interleaving
  /// packet-simulated iterations with analytically fast-forwarded ones.
  bool auto_advance = true;
};

/// Drives iterations of a collective over the transport layer with the
/// pipelined-ring dependency structure: a rank launches its stage-k sends
/// once every message addressed to it in stages < k has arrived. This
/// reproduces synchronous data-parallel training traffic: identical demand
/// every iteration, delimited by the flow_id iteration tag.
class CollectiveRunner {
 public:
  /// (iteration index, start time, completion time)
  using IterationHook = std::function<void(net::IterIndex, sim::Time, sim::Time)>;

  CollectiveRunner(sim::Simulator& simulator, transport::TransportLayer& transports,
                   CollectiveConfig config);

  // Transport handlers capture `this`, and schedule_ points into config_.
  CollectiveRunner(const CollectiveRunner&) = delete;
  CollectiveRunner& operator=(const CollectiveRunner&) = delete;

  /// Schedule iteration 0 to begin now. Call once, before Simulator::run().
  void start();

  /// Manual stepping (auto_advance == false): schedule iteration `iteration`
  /// to begin now. The caller owns the inter-iteration compute gap and must
  /// not start a new iteration while one is running.
  void start_iteration(std::uint32_t iteration);

  /// True while an iteration is in flight (between begin and finish).
  [[nodiscard]] bool running() const { return running_; }

  void add_iteration_hook(IterationHook hook) { iteration_hooks_.push_back(std::move(hook)); }

  [[nodiscard]] bool finished() const { return completed_iterations_ == config_.iterations; }
  [[nodiscard]] std::uint32_t completed_iterations() const { return completed_iterations_; }
  /// Schedule used by the iteration currently running (or the last one).
  [[nodiscard]] const CommSchedule& current_schedule() const { return *schedule_; }
  [[nodiscard]] const CollectiveConfig& config() const { return config_; }

  /// False if any validated iteration produced a wrong reduction result.
  [[nodiscard]] bool data_valid() const { return data_valid_; }
  /// Wall-clock (simulated) duration of each completed iteration.
  [[nodiscard]] const std::vector<sim::Time>& iteration_durations() const {
    return iteration_durations_;
  }

 private:
  struct PendingMsg {
    std::uint32_t iteration = 0;
    std::uint32_t stage = 0;
    std::uint32_t dst_rank = 0;
    std::uint32_t chunk = 0;
    double value = 0.0;
  };

  /// One send of the current schedule: schedule_->stages[stage].sends[index].
  struct SendRef {
    std::uint32_t stage = 0;
    std::uint32_t index = 0;
  };

  /// A rank's sends of the current iteration in schedule order (stage by
  /// stage, then as listed in the stage), and how many it has launched.
  struct RankSends {
    std::vector<SendRef> sends;
    std::size_t launched = 0;
  };

  void begin_iteration(std::uint32_t iteration);
  void rank_start(std::uint32_t rank);
  void launch_stage(std::uint32_t rank, std::uint32_t stage);
  void advance(std::uint32_t rank);
  void on_recv(net::HostId at_host, const transport::RecvInfo& info);
  void finish_iteration();
  void validate_iteration();
  [[nodiscard]] net::FlowId flow_id_for(std::uint32_t iteration) const;
  [[nodiscard]] double original_value(std::uint32_t rank, std::uint32_t chunk) const;
  [[nodiscard]] static std::uint64_t msg_key(net::HostId src, std::uint64_t msg_id) {
    return (static_cast<std::uint64_t>(src.v()) << 40) ^ msg_id;
  }

  sim::Simulator& sim_;
  transport::TransportLayer& transports_;
  CollectiveConfig config_;
  sim::Rng rng_;

  // Schedule of the current iteration: config_.schedule, or generated_
  // once schedule_generator has installed one.
  const CommSchedule* schedule_ = &config_.schedule;
  CommSchedule generated_;
  std::uint32_t ranks_ = 0;

  std::uint32_t iteration_ = 0;
  std::uint32_t completed_iterations_ = 0;
  sim::Time iteration_start_ = sim::Time::zero();
  bool running_ = false;

  // Per-iteration progress.
  std::vector<std::vector<std::uint32_t>> recv_remaining_;  // [stage][rank]
  std::vector<std::uint32_t> stages_clear_;  // rank → # leading stages fully received
  std::vector<std::uint32_t> next_stage_;    // rank → next stage to launch
  std::vector<RankSends> rank_sends_;        // [rank]
  std::uint64_t total_recv_remaining_ = 0;
  // detlint: ok(unordered): keyed emplace/find/erase only, never iterated
  // (enforced by detlint's iteration rule); progress is driven by message
  // arrival order, so hash order cannot reach results. Hot per-message path.
  std::unordered_map<std::uint64_t, PendingMsg> pending_;

  // Data validation (one double per chunk is algebraically equivalent to a
  // full gradient vector for verifying the reduction structure).
  std::vector<std::vector<double>> acc_;  // [rank][chunk]
  bool data_valid_ = true;

  std::vector<IterationHook> iteration_hooks_;
  std::vector<sim::Time> iteration_durations_;
};

}  // namespace flowpulse::collective
