#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "flowpulse/detector.h"
#include "flowpulse/monitor.h"
#include "flowpulse/port_load.h"
#include "net/types.h"

namespace flowpulse::fp {

/// O(1)-state streaming detector: one EWMA mean/variance pair per monitored
/// port plus one EWMA mean per (port, sender) for localization — no history
/// buffers, no per-iteration allocation (asserted by state_bytes() staying
/// constant in tests). The baseline is either seeded from a PortLoadMap
/// prediction (model-driven, alert-ready from iteration 0) or learned
/// in-band over kWarmupIterations (model-free).
///
/// Judgement happens BEFORE the update, against West's EWMA variance
/// recursion:  diff = x − mean;  incr = α·diff;  mean += incr;
/// var = (1−α)·(var + diff·incr).  A port in kAlert freezes its statistics
/// so a persistent fault cannot poison its own baseline; it re-enters
/// kTrack (and resumes adapting) as soon as an iteration comes back inside
/// the envelope.
class StreamingDetector {
 public:
  /// EWMA weight of the newest sample for both mean and variance.
  static constexpr double kAlpha = 0.25;
  /// Iterations absorbed before judging, when no prior was seeded.
  static constexpr std::uint32_t kWarmupIterations = 3;
  /// A port alerts when |observed − mean| exceeds this many EWMA sigmas...
  static constexpr double kZThreshold = 4.0;
  /// ...AND this relative deviation (keeps a near-zero variance estimate
  /// from flagging sub-noise wiggles).
  static constexpr double kMinRelDev = 0.005;
  /// Variance floor, as a fraction of the mean: sigma >= kVarFloorRel·mean.
  static constexpr double kVarFloorRel = 1e-3;

  StreamingDetector(net::LeafId leaf, std::uint32_t uplinks, std::uint32_t leaves);

  /// Seed every port's mean (and per-sender means) from a model prediction;
  /// variance collapses onto the floor and warmup is skipped. Called on
  /// arm and on every controller re-baseline.
  void seed(const PortLoadMap& prediction);

  /// Forget everything and learn the baseline in-band again.
  void reset();

  /// Judge one finalized iteration, then fold it into the baseline.
  [[nodiscard]] DetectionResult observe(const IterationRecord& record);

  /// Exact bytes of detector state — constant after construction; the O(1)
  /// proof tests pin this across arbitrarily long runs.
  [[nodiscard]] std::size_t state_bytes() const;

  [[nodiscard]] net::LeafId leaf() const { return leaf_; }
  /// Current EWMA mean of a port (the "prediction" its alerts carry).
  [[nodiscard]] double mean(net::UplinkIndex u) const { return ports_[u.v()].mean; }
  [[nodiscard]] double variance(net::UplinkIndex u) const { return ports_[u.v()].var; }

 private:
  enum class PortState : std::uint8_t { kWarmup, kTrack, kAlert };

  struct PortStat {
    PortState state = PortState::kWarmup;
    std::uint32_t samples = 0;
    double mean = 0.0;
    double var = 0.0;
  };

  net::LeafId leaf_;
  std::uint32_t uplinks_;
  std::uint32_t leaves_;
  std::vector<PortStat> ports_;       ///< fixed size: uplinks
  std::vector<double> src_mean_;      ///< fixed size: uplinks × leaves
};

}  // namespace flowpulse::fp
