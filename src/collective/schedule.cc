#include "collective/schedule.h"

#include <cassert>

namespace flowpulse::collective {

core::Bytes CommSchedule::wire_payload_bytes() const {
  core::Bytes bytes{};
  for (const Stage& st : stages) {
    for (const Send& s : st.sends) bytes += s.bytes;
  }
  return bytes;
}

core::Bytes chunk_bytes(core::Bytes total, std::uint32_t n, std::uint32_t c) {
  assert(c < n);
  return total / n + core::Bytes{c < total % core::Bytes{n} ? 1u : 0u};
}

namespace {

// Shared builder for the ring phases. `rs` emits reduce-scatter stages,
// `ag` all-gather stages.
CommSchedule build_ring(std::uint32_t ranks, core::Bytes total_bytes, bool rs, bool ag,
                        std::string name, CollectiveKind kind) {
  assert(ranks >= 2);
  CommSchedule sched;
  sched.name = std::move(name);
  sched.kind = kind;
  sched.ranks = ranks;
  sched.total_bytes = total_bytes;

  auto emit_phase = [&](bool gather_phase) {
    for (std::uint32_t k = 0; k < ranks - 1; ++k) {
      Stage stage;
      stage.reduce = !gather_phase;
      stage.sends.reserve(ranks);
      for (std::uint32_t i = 0; i < ranks; ++i) {
        // RS stage k: rank i forwards chunk (i - k) mod N.
        // AG stage k: rank i forwards chunk (i + 1 - k) mod N.
        const std::uint32_t base = gather_phase ? i + 1 + ranks - k : i + ranks - k;
        const std::uint32_t chunk = base % ranks;
        const core::Bytes bytes = chunk_bytes(total_bytes, ranks, chunk);
        if (bytes == core::Bytes{0}) continue;
        stage.sends.push_back(Send{i, (i + 1) % ranks, bytes, chunk});
      }
      sched.stages.push_back(std::move(stage));
    }
  };

  if (rs) emit_phase(false);
  if (ag) emit_phase(true);
  return sched;
}

}  // namespace

CommSchedule ring_all_reduce(std::uint32_t ranks, core::Bytes total_bytes) {
  return build_ring(ranks, total_bytes, true, true, "ring-allreduce",
                    CollectiveKind::kRingAllReduce);
}

CommSchedule ring_reduce_scatter(std::uint32_t ranks, core::Bytes total_bytes) {
  return build_ring(ranks, total_bytes, true, false, "ring-reduce-scatter",
                    CollectiveKind::kRingReduceScatter);
}

CommSchedule ring_all_gather(std::uint32_t ranks, core::Bytes total_bytes) {
  return build_ring(ranks, total_bytes, false, true, "ring-all-gather",
                    CollectiveKind::kRingAllGather);
}

CommSchedule all_to_all(std::uint32_t ranks, core::Bytes bytes_per_pair) {
  CommSchedule sched;
  sched.name = "all-to-all";
  sched.kind = CollectiveKind::kAllToAll;
  sched.ranks = ranks;
  sched.total_bytes = bytes_per_pair * ranks * (ranks - 1u);
  Stage stage;
  stage.reduce = false;
  stage.sends.reserve(static_cast<std::size_t>(ranks) * (ranks - 1));
  // Rotated destination order (rank i starts at i+1): every destination
  // receives from exactly one sender at a time, avoiding the synchronized
  // incast a naive ascending order creates — the same staggering real
  // AlltoAll implementations use.
  for (std::uint32_t i = 0; i < ranks; ++i) {
    for (std::uint32_t k = 1; k < ranks; ++k) {
      const std::uint32_t j = (i + k) % ranks;
      if (bytes_per_pair == core::Bytes{0}) continue;
      stage.sends.push_back(Send{i, j, bytes_per_pair, 0});
    }
  }
  sched.stages.push_back(std::move(stage));
  return sched;
}

CommSchedule all_to_all_random(std::uint32_t ranks, core::Bytes min_bytes,
                               core::Bytes max_bytes, sim::Rng& rng) {
  assert(max_bytes >= min_bytes);
  CommSchedule sched;
  sched.name = "all-to-all-random";
  sched.kind = CollectiveKind::kAllToAll;
  sched.ranks = ranks;
  Stage stage;
  stage.reduce = false;
  for (std::uint32_t i = 0; i < ranks; ++i) {
    for (std::uint32_t k = 1; k < ranks; ++k) {
      const std::uint32_t j = (i + k) % ranks;  // rotated order, see all_to_all()
      const core::Bytes bytes =
          min_bytes + core::Bytes{rng.next_below((max_bytes - min_bytes).v() + 1)};
      if (bytes == core::Bytes{0}) continue;
      stage.sends.push_back(Send{i, j, bytes, 0});
      sched.total_bytes += bytes;
    }
  }
  sched.stages.push_back(std::move(stage));
  return sched;
}

CommSchedule hierarchical_ring_all_reduce(std::uint32_t groups, std::uint32_t group_size,
                                          core::Bytes total_bytes) {
  assert(groups >= 2 && group_size >= 1);
  const std::uint32_t ranks = groups * group_size;
  CommSchedule sched;
  sched.name = "hierarchical-ring-allreduce";
  sched.kind = CollectiveKind::kHierarchicalRing;
  sched.ranks = ranks;
  sched.total_bytes = total_bytes;
  auto leader = [group_size](std::uint32_t g) { return g * group_size; };

  // Phase 1 — local reduce: every member sends its whole contribution to
  // its group leader. Stays under the leaf; never forwarded to spines.
  if (group_size > 1) {
    Stage local_reduce;
    local_reduce.reduce = true;
    for (std::uint32_t g = 0; g < groups; ++g) {
      for (std::uint32_t m = 1; m < group_size; ++m) {
        local_reduce.sends.push_back(Send{leader(g) + m, leader(g), total_bytes, 0});
      }
    }
    sched.stages.push_back(std::move(local_reduce));
  }

  // Phase 2 — Ring-AllReduce over the leaders (the only spine traffic).
  const CommSchedule ring = ring_all_reduce(groups, total_bytes);
  for (const Stage& st : ring.stages) {
    Stage stage;
    stage.reduce = st.reduce;
    stage.sends.reserve(st.sends.size());
    for (const Send& s : st.sends) {
      stage.sends.push_back(Send{leader(s.src_rank), leader(s.dst_rank), s.bytes, s.chunk});
    }
    sched.stages.push_back(std::move(stage));
  }

  // Phase 3 — local broadcast of the full result back to the members.
  if (group_size > 1) {
    Stage local_bcast;
    local_bcast.reduce = false;
    for (std::uint32_t g = 0; g < groups; ++g) {
      for (std::uint32_t m = 1; m < group_size; ++m) {
        local_bcast.sends.push_back(Send{leader(g), leader(g) + m, total_bytes, 0});
      }
    }
    sched.stages.push_back(std::move(local_bcast));
  }
  return sched;
}

}  // namespace flowpulse::collective
