#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/units.h"
#include "sim/rng.h"

namespace flowpulse::collective {

/// One point-to-point message inside a collective stage, in *rank* space
/// (rank = position in the participant list, mapped to hosts by the runner).
struct Send {
  std::uint32_t src_rank = 0;
  std::uint32_t dst_rank = 0;
  core::Bytes bytes{};
  std::uint32_t chunk = 0;  ///< logical chunk index (for data validation)
};

/// A stage groups sends that become eligible together: a rank launches its
/// stage-k sends once it has received everything addressed to it in stages
/// < k (the pipelined-ring dependency structure).
struct Stage {
  std::vector<Send> sends;
  /// Data semantics for validation: true → receiver accumulates (reduce-
  /// scatter phase), false → receiver overwrites (all-gather phase).
  bool reduce = true;
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
  std::vector<Stage> stages;

  /// Total bytes sent by all ranks over the whole schedule.
  [[nodiscard]] core::Bytes wire_payload_bytes() const;
};

/// Size of chunk `c` when `total` bytes are split into `n` chunks: the first
/// (total % n) chunks carry one extra byte so the sizes sum exactly.
[[nodiscard]] core::Bytes chunk_bytes(core::Bytes total, std::uint32_t n, std::uint32_t c);

/// Ring-AllReduce over `ranks` participants moving `total_bytes`:
/// N−1 reduce-scatter stages followed by N−1 all-gather stages. At stage k,
/// rank i sends chunk (i − k) mod N (RS phase) or (i + 1 − k) mod N (AG
/// phase) of size ≈ total/N to rank (i+1) mod N.
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
