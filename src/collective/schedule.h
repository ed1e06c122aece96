#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/units.h"
#include "sim/rng.h"

namespace flowpulse::collective {

/// One point-to-point message of a collective, in *rank* space (rank =
/// position in the participant list, mapped to hosts by the runner). A rank
/// launches its stage-k sends once it has received everything addressed to
/// it in stages < k (the pipelined-ring dependency structure).
struct Send {
  std::uint32_t stage = 0;
  std::uint32_t src_rank = 0;
  std::uint32_t dst_rank = 0;
  core::Bytes bytes{};
  std::uint32_t chunk = 0;  ///< logical chunk index (for data validation)

  friend bool operator==(const Send&, const Send&) = default;
};

/// `count` sends from one rank to `dst_rank` in consecutive stages: send j
/// (0 <= j < count) goes at stage `stage + j`, carries chunk
/// `(chunk − j) mod ranks` and is `bytes` long. A ring rank forwards a
/// chunk one lower every stage, so a whole ring phase is at most three runs.
struct SendRun {
  std::uint32_t stage = 0;
  std::uint32_t count = 1;
  std::uint32_t dst_rank = 0;
  std::uint32_t chunk = 0;
  core::Bytes bytes{};
};

enum class CollectiveKind : std::uint8_t {
  kRingAllReduce,
  kRingReduceScatter,
  kRingAllGather,
  kAllToAll,
  kHierarchicalRing,
};

/// A full communication schedule for one iteration of a collective.
struct CommSchedule {
  std::string name;
  CollectiveKind kind = CollectiveKind::kRingAllReduce;
  std::uint32_t ranks = 0;
  core::Bytes total_bytes{};  ///< collective payload size (B in the paper)
  std::uint32_t num_stages = 0;
  /// Data semantics for validation: a message of a stage below
  /// `reduce_stages` accumulates at its receiver (reduce-scatter phase), a
  /// later one overwrites (all-gather phase).
  std::uint32_t reduce_stages = 0;
  /// Every rank's sends in launch order (stage by stage, then as the
  /// collective lists them within a stage), rank 0's first: rank r's runs
  /// are runs[run_begin[r], run_begin[r + 1]).
  std::vector<SendRun> runs;
  std::vector<std::uint32_t> run_begin{0};

  [[nodiscard]] std::span<const SendRun> runs_of(std::uint32_t rank) const {
    return std::span<const SendRun>{runs}.subspan(run_begin[rank],
                                                  run_begin[rank + 1] - run_begin[rank]);
  }

  /// Chunk carried by send j of `run`.
  [[nodiscard]] std::uint32_t chunk_of(const SendRun& run, std::uint32_t j) const {
    return (run.chunk + ranks - j % ranks) % ranks;
  }

  /// Calls visit(const Send&) for every send, rank by rank, each rank's in
  /// launch order.
  template <class Visit>
  void for_each_send(Visit&& visit) const {
    for (std::uint32_t r = 0; r < ranks; ++r) {
      for (const SendRun& run : runs_of(r)) {
        for (std::uint32_t j = 0; j < run.count; ++j) {
          visit(Send{run.stage + j, r, run.dst_rank, run.bytes, chunk_of(run, j)});
        }
      }
    }
  }

  /// Total bytes sent by all ranks over the whole schedule.
  [[nodiscard]] core::Bytes wire_payload_bytes() const;
};

/// Size of chunk `c` when `total` bytes are split into `n` chunks: the first
/// (total % n) chunks carry one extra byte so the sizes sum exactly.
[[nodiscard]] core::Bytes chunk_bytes(core::Bytes total, std::uint32_t n, std::uint32_t c);

/// Ring-AllReduce over `ranks` participants moving `total_bytes`:
/// N−1 reduce-scatter stages followed by N−1 all-gather stages. At stage k,
/// rank i sends chunk (i − k) mod N (RS phase) or (i + 1 − k) mod N (AG
/// phase) of size ≈ total/N to rank (i+1) mod N. Zero-byte chunks send
/// nothing.
[[nodiscard]] CommSchedule ring_all_reduce(std::uint32_t ranks, core::Bytes total_bytes);

/// Only the N−1 reduce-scatter stages — the "31-stage Ring-AllReduce" shape
/// the paper's evaluation runs on 32 leaves (§6).
[[nodiscard]] CommSchedule ring_reduce_scatter(std::uint32_t ranks, core::Bytes total_bytes);

/// Only the N−1 all-gather stages.
[[nodiscard]] CommSchedule ring_all_gather(std::uint32_t ranks, core::Bytes total_bytes);

/// AlltoAll: a single stage where every rank sends `bytes_per_pair` to every
/// other rank (uniform demand).
[[nodiscard]] CommSchedule all_to_all(std::uint32_t ranks, core::Bytes bytes_per_pair);

/// AlltoAll with a random demand matrix (expert-parallel-style dynamic
/// traffic, paper §7 "Beyond reduction collectives"): each ordered pair
/// draws bytes uniformly in [min_bytes, max_bytes].
[[nodiscard]] CommSchedule all_to_all_random(std::uint32_t ranks, core::Bytes min_bytes,
                                             core::Bytes max_bytes, sim::Rng& rng);

/// Hierarchical (locality-optimized) AllReduce for fabrics with several
/// hosts per leaf — the collective shape the paper's §5.1 locality argument
/// describes: ranks are grouped into `groups` of `group_size` consecutive
/// ranks (one group per leaf); members first reduce onto their group leader
/// (intra-leaf traffic that never reaches the spines), leaders run a
/// Ring-AllReduce among themselves (exactly one non-local sender and
/// receiver per leaf — the jitter-robust condition), and finally broadcast
/// back to their members (again local).
[[nodiscard]] CommSchedule hierarchical_ring_all_reduce(std::uint32_t groups,
                                                        std::uint32_t group_size,
                                                        core::Bytes total_bytes);

}  // namespace flowpulse::collective
