#pragma once

#include <cstdint>
#include <vector>

namespace flowpulse::fp {

/// Fidelity lattice of the hybrid engine, highest to lowest:
///
///   kPacket  — every iteration is simulated packet-by-packet (the seed
///              behavior; bit-identical to pre-hybrid runs).
///   kHybrid  — healthy iterations are fast-forwarded analytically; the
///              engine demotes to packet fidelity in windows around fault
///              onset, detector alerts, controller probation/verification,
///              and mitigation actions, and re-promotes only after a
///              hysteresis hold.
///   kFlow    — every iteration is fast-forwarded; silent faults are
///              folded into the synthesized counters by a first-order
///              survival model. Cheapest, and sufficient for closed-loop
///              detect→localize→mitigate studies that don't need transport
///              microbehavior.
enum class FidelityMode : std::uint8_t {
  kPacket = 0,
  kHybrid = 1,
  kFlow = 2,
};

[[nodiscard]] constexpr const char* fidelity_mode_name(FidelityMode m) {
  switch (m) {
    case FidelityMode::kPacket:
      return "packet";
    case FidelityMode::kHybrid:
      return "hybrid";
    case FidelityMode::kFlow:
      return "flow";
  }
  return "unknown";
}

/// When the hybrid engine may fast-forward and when it must drop back to
/// packets. Defaults are conservative: they keep every iteration the
/// controller judges during a probation window at packet fidelity.
struct FidelityPolicy {
  FidelityMode mode = FidelityMode::kPacket;

  /// Relative sigma of the deterministic multiplicative noise applied to
  /// synthesized per-port counters, so detector statistics stay honest
  /// (spray imbalance in packet runs is ~0.2% at paper scale). Set to 0
  /// for exact analytical counters.
  double noise_rel = 0.002;
};

/// What the hybrid engine actually did during a run — the fidelity
/// accounting reported next to the results it produced.
struct FidelityStats {
  bool enabled = false;  ///< mode != kPacket and the scenario supported it
  FidelityMode mode = FidelityMode::kPacket;
  std::uint32_t packet_iterations = 0;
  std::uint32_t flow_iterations = 0;
  std::uint32_t demotions = 0;   ///< flow→packet switches
  std::uint32_t promotions = 0;  ///< packet→flow switches
  /// Per-iteration record: 1 = packet, 0 = fast-forwarded.
  std::vector<std::uint8_t> iteration_mode;
};

}  // namespace flowpulse::fp
