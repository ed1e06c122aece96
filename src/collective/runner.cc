#include "collective/runner.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

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
    transports_.at(config_.hosts[r])
        .add_recv_handler([this](const transport::RecvInfo& info) { on_recv(info); });
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

  expect_inbound();
  rank_state_.resize(ranks_);
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    RankState& st = rank_state_[r];
    st.run = schedule_->run_begin[r];
    st.sent = 0;
    st.clear = 0;
    st.next = expected_begin_[r];
    st.window.assign(std::max<std::size_t>(st.window.size(), 1), 0);
    // A rank may have nothing to receive in leading stages; normalize.
    settle(r);
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
    // Launch every stage that is already unblocked (stage 0, plus any later
    // stage whose inbound traffic is empty).
    sim_.schedule_in(jitter, [this, r, iteration] {
      if (iteration_ == iteration && running_) advance(r);
    });
  }

  // Degenerate schedules (no sends at all) complete immediately.
  if (total_recv_remaining_ == 0) finish_iteration();
}

void CollectiveRunner::expect_inbound() {
  // Where each run's messages start and stop arriving at its receiver:
  // +1 message per stage from run.stage, −1 after its last stage.
  struct Edge {
    std::uint32_t rank = 0;
    std::uint32_t stage = 0;
    std::int32_t delta = 0;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * schedule_->runs.size());
  total_recv_remaining_ = 0;
  for (const SendRun& run : schedule_->runs) {
    edges.push_back(Edge{run.dst_rank, run.stage, 1});
    edges.push_back(Edge{run.dst_rank, run.stage + run.count, -1});
    total_recv_remaining_ += run.count;
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::pair{a.rank, a.stage} < std::pair{b.rank, b.stage};
  });

  expected_.clear();
  expected_begin_.assign(ranks_ + 1, 0);
  std::size_t e = 0;
  for (std::uint32_t r = 0; r < ranks_; ++r) {
    expected_begin_[r] = static_cast<std::uint32_t>(expected_.size());
    std::int64_t messages = 0;  // per stage from `from` on
    std::uint32_t from = 0;
    for (; e < edges.size() && edges[e].rank == r; ++e) {
      const std::uint32_t stage = edges[e].stage;
      if (stage != from && messages > 0) {
        const Expected seg{from, stage - from, static_cast<std::uint32_t>(messages)};
        if (expected_.size() > expected_begin_[r] &&
            expected_.back().stage + expected_.back().count == from &&
            expected_.back().messages == seg.messages) {
          expected_.back().count += seg.count;  // abutting runs from one sender
        } else {
          expected_.push_back(seg);
        }
      }
      from = stage;
      messages += edges[e].delta;
    }
  }
  expected_begin_[ranks_] = static_cast<std::uint32_t>(expected_.size());
}

void CollectiveRunner::settle(std::uint32_t rank) {
  RankState& st = rank_state_[rank];
  const std::size_t mask = st.window.size() - 1;
  for (; st.next < expected_begin_[rank + 1]; ++st.next) {
    const Expected& seg = expected_[st.next];
    st.clear = std::max(st.clear, seg.stage);  // nothing expected before seg.stage
    for (; st.clear < seg.stage + seg.count; ++st.clear) {
      std::uint32_t& got = st.window[st.clear & mask];
      assert(got <= seg.messages);
      if (got < seg.messages) return;
      got = 0;
    }
  }
  st.clear = schedule_->num_stages;
}

void CollectiveRunner::advance(std::uint32_t rank) {
  // Stages launch in order, and a rank's runs list its sends in that order.
  RankState& st = rank_state_[rank];
  const net::HostId src_host = config_.hosts[rank];
  for (; st.run < schedule_->run_begin[rank + 1]; ++st.run, st.sent = 0) {
    const SendRun& run = schedule_->runs[st.run];
    for (; st.sent < run.count; ++st.sent) {
      const std::uint32_t stage = run.stage + st.sent;
      if (stage > st.clear) return;
      const std::uint32_t chunk = schedule_->chunk_of(run, st.sent);
      transport::MessageSpec spec;
      spec.dst = config_.hosts[run.dst_rank];
      spec.bytes = run.bytes;
      spec.flow_id = flow_id_for(iteration_);
      spec.priority = config_.priority;
      const double value = config_.validate_data ? acc_[rank][chunk] : 0.0;
      const std::uint64_t msg_id = transports_.at(src_host).send_message(spec);
      pending_.emplace(msg_key(src_host, msg_id),
                       PendingMsg{iteration_, stage, run.dst_rank, chunk, value});
    }
  }
}

void CollectiveRunner::on_recv(const transport::RecvInfo& info) {
  auto it = pending_.find(msg_key(info.src, info.msg_id));
  if (it == pending_.end()) return;  // another job's message
  const PendingMsg msg = it->second;
  pending_.erase(it);
  assert(msg.iteration == iteration_);

  const std::uint32_t rank = msg.dst_rank;
  if (config_.validate_data) {
    if (msg.stage < schedule_->reduce_stages) {
      acc_[rank][msg.chunk] += msg.value;
    } else {
      acc_[rank][msg.chunk] = msg.value;
    }
  }

  RankState& st = rank_state_[rank];
  assert(msg.stage >= st.clear);
  const std::uint32_t ahead = msg.stage - st.clear;
  if (ahead >= st.window.size()) {
    // Re-home every live count in a window wide enough for `ahead`.
    std::vector<std::uint32_t> wider(std::bit_ceil(ahead + 1), 0);
    for (std::uint32_t s = st.clear; s < st.clear + st.window.size(); ++s) {
      wider[s & (wider.size() - 1)] = st.window[s & (st.window.size() - 1)];
    }
    st.window = std::move(wider);
  }
  ++st.window[msg.stage & (st.window.size() - 1)];
  --total_recv_remaining_;

  settle(rank);
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
