#include "collective/runner.h"

#include <cassert>
#include <cmath>

namespace flowpulse::collective {

CollectiveRunner::CollectiveRunner(sim::Simulator& simulator,
                                   transport::TransportLayer& transports,
                                   CollectiveConfig config)
    : sim_{simulator},
      transports_{transports},
      config_{std::move(config)},
      rng_{simulator.rng().split()},
      ranks_{static_cast<std::uint32_t>(config_.hosts.size())} {
  assert(!config_.hosts.empty());
  assert(config_.schedule_generator || schedule_->ranks == ranks_);
  // Subscribe to message completions at every participating host.
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    const net::HostId h = config_.hosts[r];
    transports_.at(h).add_recv_handler(
        [this, h](const transport::RecvInfo& info) { on_recv(h, info); });
  }
}

net::FlowId CollectiveRunner::flow_id_for(std::uint32_t iteration) const {
  if (config_.tag_flow) {
    return net::flowid::make_collective(net::IterIndex{iteration}, config_.job_id);
  }
  // Untagged (background) job: any id without the collective sentinel.
  return (static_cast<net::FlowId>(config_.job_id) + 1) << 32 | iteration;
}

double CollectiveRunner::original_value(std::uint32_t rank, std::uint32_t chunk) const {
  // Deterministic, iteration-dependent inputs so cross-iteration mixups are
  // caught by validation.
  return (iteration_ + 1.0) * (rank + 1.0) + 0.001 * chunk;
}

void CollectiveRunner::start() { begin_iteration(0); }

void CollectiveRunner::start_iteration(std::uint32_t iteration) {
  assert(!running_);
  begin_iteration(iteration);
}

void CollectiveRunner::begin_iteration(std::uint32_t iteration) {
  iteration_ = iteration;
  iteration_start_ = sim_.now();
  running_ = true;

  if (config_.schedule_generator) {
    generated_ = config_.schedule_generator(iteration, rng_);
    schedule_ = &generated_;
    assert(schedule_->ranks == ranks_);
  }

  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_->stages.size());
  recv_remaining_.assign(stages, std::vector<std::uint32_t>(ranks_, 0));
  total_recv_remaining_ = 0;
  rank_sends_.resize(ranks_);
  for (RankSends& own : rank_sends_) {
    own.sends.clear();
    own.launched = 0;
  }
  for (std::uint32_t k = 0; k < stages; ++k) {
    const std::vector<Send>& sends = schedule_->stages[k].sends;
    for (std::uint32_t i = 0; i < sends.size(); ++i) {
      ++recv_remaining_[k][sends[i].dst_rank];
      ++total_recv_remaining_;
      rank_sends_[sends[i].src_rank].sends.push_back(SendRef{k, i});
    }
  }
  stages_clear_.assign(ranks_, 0);
  next_stage_.assign(ranks_, 0);
  // A rank may have nothing to receive in leading stages; normalize.
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    while (stages_clear_[r] < stages && recv_remaining_[stages_clear_[r]][r] == 0) {
      ++stages_clear_[r];
    }
  }

  if (config_.validate_data) {
    acc_.assign(ranks_, std::vector<double>(ranks_, 0.0));
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      for (std::uint32_t c = 0; c < ranks_; ++c) acc_[r][c] = original_value(r, c);
    }
  }

  for (std::uint32_t r = 0; r < ranks_; ++r) {
    sim::Time jitter = sim::Time::zero();
    if (config_.max_jitter > sim::Time::zero()) {
      jitter = sim::Time::picoseconds(static_cast<std::int64_t>(
          rng_.next_below(static_cast<std::uint64_t>(config_.max_jitter.ps()))));
    }
    sim_.schedule_in(jitter, [this, r, iteration] {
      if (iteration_ == iteration && running_) rank_start(r);
    });
  }

  // Degenerate schedules (no sends at all) complete immediately.
  if (total_recv_remaining_ == 0) finish_iteration();
}

void CollectiveRunner::rank_start(std::uint32_t rank) {
  // Launch every stage that is already unblocked (stage 0, plus any later
  // stage whose inbound traffic is empty).
  advance(rank);
}

void CollectiveRunner::advance(std::uint32_t rank) {
  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_->stages.size());
  while (next_stage_[rank] < stages && next_stage_[rank] <= stages_clear_[rank]) {
    const std::uint32_t k = next_stage_[rank];
    ++next_stage_[rank];
    launch_stage(rank, k);
  }
}

void CollectiveRunner::launch_stage(std::uint32_t rank, std::uint32_t stage) {
  // Stages launch in order, so this stage's sends are the next unlaunched
  // run of the rank's own list.
  const net::HostId src_host = config_.hosts[rank];
  const std::vector<Send>& stage_sends = schedule_->stages[stage].sends;
  RankSends& own = rank_sends_[rank];
  for (; own.launched < own.sends.size() && own.sends[own.launched].stage == stage;
       ++own.launched) {
    const Send& s = stage_sends[own.sends[own.launched].index];
    transport::MessageSpec spec;
    spec.dst = config_.hosts[s.dst_rank];
    spec.bytes = s.bytes;
    spec.flow_id = flow_id_for(iteration_);
    spec.priority = config_.priority;
    const double value = config_.validate_data ? acc_[rank][s.chunk] : 0.0;
    const std::uint64_t msg_id = transports_.at(src_host).send_message(spec);
    pending_.emplace(msg_key(src_host, msg_id),
                     PendingMsg{iteration_, stage, s.dst_rank, s.chunk, value});
  }
}

void CollectiveRunner::on_recv(net::HostId at_host, const transport::RecvInfo& info) {
  (void)at_host;
  auto it = pending_.find(msg_key(info.src, info.msg_id));
  if (it == pending_.end()) return;  // another job's message
  const PendingMsg msg = it->second;
  pending_.erase(it);
  assert(msg.iteration == iteration_);

  const std::uint32_t rank = msg.dst_rank;
  if (config_.validate_data) {
    if (schedule_->stages[msg.stage].reduce) {
      acc_[rank][msg.chunk] += msg.value;
    } else {
      acc_[rank][msg.chunk] = msg.value;
    }
  }

  assert(recv_remaining_[msg.stage][rank] > 0);
  --recv_remaining_[msg.stage][rank];
  --total_recv_remaining_;

  const std::uint32_t stages = static_cast<std::uint32_t>(schedule_->stages.size());
  while (stages_clear_[rank] < stages && recv_remaining_[stages_clear_[rank]][rank] == 0) {
    ++stages_clear_[rank];
  }
  advance(rank);

  if (total_recv_remaining_ == 0) finish_iteration();
}

void CollectiveRunner::validate_iteration() {
  // Expected full reduction of chunk c: sum over ranks of original(r, c).
  for (std::uint32_t c = 0; c < ranks_; ++c) {
    double expect = 0.0;
    for (std::uint32_t r = 0; r < ranks_; ++r) expect += original_value(r, c);
    switch (schedule_->kind) {
      case CollectiveKind::kRingAllReduce:
        for (std::uint32_t r = 0; r < ranks_; ++r) {
          if (std::abs(acc_[r][c] - expect) > 1e-6) data_valid_ = false;
        }
        break;
      case CollectiveKind::kRingReduceScatter: {
        // After N-1 RS stages, rank r owns the full sum of chunk (r+1) mod N.
        const std::uint32_t owner = (c + ranks_ - 1) % ranks_;
        if (std::abs(acc_[owner][c] - expect) > 1e-6) data_valid_ = false;
        break;
      }
      default:
        break;  // all-gather / all-to-all carry no reduction to check
    }
  }
}

void CollectiveRunner::finish_iteration() {
  running_ = false;
  ++completed_iterations_;
  iteration_durations_.push_back(sim_.now() - iteration_start_);
  if (config_.validate_data) validate_iteration();
  for (const IterationHook& hook : iteration_hooks_) {
    hook(net::IterIndex{iteration_}, iteration_start_, sim_.now());
  }

  if (config_.auto_advance && completed_iterations_ < config_.iterations) {
    const std::uint32_t next = iteration_ + 1;
    sim_.schedule_in(config_.compute_gap, [this, next] { begin_iteration(next); });
  }
}

}  // namespace flowpulse::collective
