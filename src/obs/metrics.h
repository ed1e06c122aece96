#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace flowpulse::obs {

/// Fixed-bucket log2 histogram over non-negative doubles. Bucket i holds
/// values in [2^(i-1), 2^i) (bucket 0 holds [0, 1)); values beyond the
/// last bucket clamp into it. Deterministic, allocation-free adds.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void add(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Smallest bucket upper bound below which at least `q` (0..1] of the
  /// recorded values fall — a coarse quantile for operator tables.
  [[nodiscard]] double quantile_bound(double q) const;

  /// {"count":N,"min":..,"mean":..,"max":..,"p99":..}
  [[nodiscard]] std::string to_json() const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The counter/histogram registry a trace window reduces to: event-kind
/// counters plus the distributions a fabric operator actually graphs.
/// Built by replaying recorded events, so the hot path pays only the trace
/// emission itself and a disabled build pays nothing.
struct TraceMetrics {
  std::array<std::uint64_t, core::kNumEventKinds> by_kind{};

  Histogram drop_bytes;           ///< size of packets lost to faults
  Histogram pause_us;             ///< PFC pause durations (pause→resume)
  Histogram queue_bytes_at_pause; ///< ingress occupancy when XOFF tripped
  Histogram detector_rel_dev;     ///< deviation of flagged ports
  std::uint64_t retransmits = 0;  ///< RTO firings (kRtoFire)

  [[nodiscard]] std::uint64_t count(core::EventKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }

  /// Replay a chronological event window into a registry.
  [[nodiscard]] static TraceMetrics from_events(const std::vector<core::TraceEvent>& events);

  /// One JSON object (counters + histogram summaries), for exp::report.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace flowpulse::obs
