#include "collective/schedule.h"

#include <array>
#include <cassert>
#include <utility>

namespace flowpulse::collective {

core::Bytes CommSchedule::wire_payload_bytes() const {
  core::Bytes bytes{};
  for (const SendRun& run : runs) bytes += run.bytes * run.count;
  return bytes;
}

core::Bytes chunk_bytes(core::Bytes total, std::uint32_t n, std::uint32_t c) {
  assert(c < n);
  return total / n + core::Bytes{c < total % core::Bytes{n} ? 1u : 0u};
}

namespace {

CommSchedule empty_schedule(std::string name, CollectiveKind kind, std::uint32_t ranks,
                            core::Bytes total_bytes) {
  CommSchedule sched;
  sched.name = std::move(name);
  sched.kind = kind;
  sched.ranks = ranks;
  sched.total_bytes = total_bytes;
  sched.run_begin.reserve(static_cast<std::size_t>(ranks) + 1);
  return sched;
}

// Ends the current rank's runs: the runs appended from here on belong to
// the next rank.
void close_rank(CommSchedule& sched) {
  sched.run_begin.push_back(static_cast<std::uint32_t>(sched.runs.size()));
}

// Appends rank i's sends of one ring phase: ranks − 1 consecutive stages
// from `first_stage`, forwarding chunks c0, c0 − 1, ... (mod ranks) to rank
// i + 1. chunk_bytes takes two values, one more byte below rem = total %
// ranks than from rem up, so the size changes only where the chunk reaches
// rem − 1 or wraps from 0 to ranks − 1: at most three runs. A zero-byte
// run sends nothing and is left out.
void append_ring_phase(CommSchedule& sched, std::uint32_t first_stage, std::uint32_t i,
                       std::uint32_t c0) {
  const std::uint32_t n = sched.ranks;
  const std::uint32_t len = n - 1;
  const auto rem = static_cast<std::uint32_t>(sched.total_bytes % core::Bytes{n});
  // Phase-relative stages where a run starts, ascending; len ends the last.
  std::array<std::uint32_t, 4> starts{0, len, len, len};
  std::uint32_t count = 1;
  if (rem != 0) {
    for (const std::uint32_t j : {(c0 + n + 1 - rem) % n, (c0 + 1) % n}) {
      if (j > 0 && j < len) starts[count++] = j;
    }
    if (count == 3 && starts[1] > starts[2]) std::swap(starts[1], starts[2]);
  }
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint32_t chunk = (c0 + n - starts[s]) % n;
    const core::Bytes bytes = chunk_bytes(sched.total_bytes, n, chunk);
    if (bytes == core::Bytes{0}) continue;
    sched.runs.push_back(
        SendRun{first_stage + starts[s], starts[s + 1] - starts[s], (i + 1) % n, chunk, bytes});
  }
}

// Shared builder for the ring phases. `rs` emits reduce-scatter stages,
// `ag` all-gather stages.
CommSchedule build_ring(std::uint32_t ranks, core::Bytes total_bytes, bool rs, bool ag,
                        std::string name, CollectiveKind kind) {
  assert(ranks >= 2);
  CommSchedule sched = empty_schedule(std::move(name), kind, ranks, total_bytes);
  const std::uint32_t phase_stages = ranks - 1;
  sched.num_stages = (rs ? phase_stages : 0) + (ag ? phase_stages : 0);
  sched.reduce_stages = rs ? phase_stages : 0;
  sched.runs.reserve(static_cast<std::size_t>(ranks) * (rs && ag ? 2 : 1));
  for (std::uint32_t i = 0; i < ranks; ++i) {
    // RS stage k: rank i forwards chunk (i − k) mod N.
    // AG stage k: rank i forwards chunk (i + 1 − k) mod N.
    if (rs) append_ring_phase(sched, 0, i, i);
    if (ag) append_ring_phase(sched, sched.reduce_stages, i, (i + 1) % ranks);
    close_rank(sched);
  }
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
  CommSchedule sched = empty_schedule("all-to-all", CollectiveKind::kAllToAll, ranks,
                                      bytes_per_pair * ranks * (ranks - 1u));
  sched.num_stages = 1;
  const bool sends = bytes_per_pair != core::Bytes{0};
  if (sends) sched.runs.reserve(static_cast<std::size_t>(ranks) * (ranks - 1));
  // Rotated destination order (rank i starts at i+1): every destination
  // receives from exactly one sender at a time, avoiding the synchronized
  // incast a naive ascending order creates — the same staggering real
  // AlltoAll implementations use.
  for (std::uint32_t i = 0; i < ranks; ++i) {
    for (std::uint32_t k = 1; sends && k < ranks; ++k) {
      sched.runs.push_back(SendRun{0, 1, (i + k) % ranks, 0, bytes_per_pair});
    }
    close_rank(sched);
  }
  return sched;
}

CommSchedule all_to_all_random(std::uint32_t ranks, core::Bytes min_bytes,
                               core::Bytes max_bytes, sim::Rng& rng) {
  assert(max_bytes >= min_bytes);
  CommSchedule sched =
      empty_schedule("all-to-all-random", CollectiveKind::kAllToAll, ranks, core::Bytes{});
  sched.num_stages = 1;
  for (std::uint32_t i = 0; i < ranks; ++i) {
    for (std::uint32_t k = 1; k < ranks; ++k) {
      const std::uint32_t j = (i + k) % ranks;  // rotated order, see all_to_all()
      const core::Bytes bytes =
          min_bytes + core::Bytes{rng.next_below((max_bytes - min_bytes).v() + 1)};
      if (bytes == core::Bytes{0}) continue;
      sched.runs.push_back(SendRun{0, 1, j, 0, bytes});
      sched.total_bytes += bytes;
    }
    close_rank(sched);
  }
  return sched;
}

CommSchedule hierarchical_ring_all_reduce(std::uint32_t groups, std::uint32_t group_size,
                                          core::Bytes total_bytes) {
  assert(groups >= 2 && group_size >= 1);
  CommSchedule sched =
      empty_schedule("hierarchical-ring-allreduce", CollectiveKind::kHierarchicalRing,
                     groups * group_size, total_bytes);
  auto leader = [group_size](std::uint32_t g) { return g * group_size; };
  const bool local = group_size > 1;

  // Phase 1 — local reduce (stage 0): every member sends its whole
  // contribution to its group leader. Stays under the leaf; never forwarded
  // to spines.
  // Phase 2 — Ring-AllReduce over the leaders (the only spine traffic). Its
  // chunks count modulo `groups`, so each send is a run of its own.
  // Phase 3 — local broadcast (last stage) of the full result back to the
  // members.
  const CommSchedule ring = ring_all_reduce(groups, total_bytes);
  const std::uint32_t first_ring_stage = local ? 1 : 0;
  const std::uint32_t broadcast_stage = first_ring_stage + ring.num_stages;
  sched.num_stages = broadcast_stage + (local ? 1 : 0);
  sched.reduce_stages = first_ring_stage + ring.reduce_stages;
  for (std::uint32_t g = 0; g < groups; ++g) {
    for (const SendRun& run : ring.runs_of(g)) {
      for (std::uint32_t j = 0; j < run.count; ++j) {
        sched.runs.push_back(SendRun{first_ring_stage + run.stage + j, 1, leader(run.dst_rank),
                                     ring.chunk_of(run, j), run.bytes});
      }
    }
    for (std::uint32_t m = 1; m < group_size; ++m) {
      sched.runs.push_back(SendRun{broadcast_stage, 1, leader(g) + m, 0, total_bytes});
    }
    close_rank(sched);
    for (std::uint32_t m = 1; m < group_size; ++m) {
      sched.runs.push_back(SendRun{0, 1, leader(g), 0, total_bytes});
      close_rank(sched);
    }
  }
  return sched;
}

}  // namespace flowpulse::collective
