#pragma once

#include <cstdint>
#include <limits>
#include <ostream>

namespace flowpulse::core {

/// Simulated time. Strong type over an integer picosecond count so that
/// bandwidth-delay arithmetic at 400 Gbps+ stays exact (1 byte at 400 Gbps
/// serializes in 20 ps). Signed so durations subtract safely.
///
/// Lives in core/ (the bottom of the module DAG) because every layer — the
/// units in core/units.h included — does time arithmetic; sim/time.h
/// re-exports it under the historical sim::Time spelling.
class Time {
 public:
  constexpr Time() = default;

  [[nodiscard]] static constexpr Time picoseconds(std::int64_t ps) { return Time{ps}; }
  [[nodiscard]] static constexpr Time nanoseconds(std::int64_t ns) { return Time{ns * 1'000}; }
  [[nodiscard]] static constexpr Time microseconds(std::int64_t us) { return Time{us * 1'000'000}; }
  [[nodiscard]] static constexpr Time milliseconds(std::int64_t ms) { return Time{ms * 1'000'000'000}; }
  [[nodiscard]] static constexpr Time seconds(std::int64_t s) { return Time{s * 1'000'000'000'000}; }
  [[nodiscard]] static constexpr Time max() { return Time{std::numeric_limits<std::int64_t>::max()}; }
  [[nodiscard]] static constexpr Time zero() { return Time{0}; }

  [[nodiscard]] constexpr std::int64_t ps() const { return ps_; }
  [[nodiscard]] constexpr double ns() const { return static_cast<double>(ps_) / 1e3; }
  [[nodiscard]] constexpr double us() const { return static_cast<double>(ps_) / 1e6; }
  [[nodiscard]] constexpr double ms() const { return static_cast<double>(ps_) / 1e9; }

  constexpr Time& operator+=(Time rhs) {
    ps_ += rhs.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time rhs) {
    ps_ -= rhs.ps_;
    return *this;
  }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  friend constexpr Time operator*(Time a, std::int64_t k) { return Time{a.ps_ * k}; }
  friend constexpr Time operator*(std::int64_t k, Time a) { return Time{a.ps_ * k}; }
  friend constexpr auto operator<=>(Time a, Time b) = default;

 private:
  constexpr explicit Time(std::int64_t ps) : ps_{ps} {}
  std::int64_t ps_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, Time t) { return os << t.ns() << "ns"; }

namespace detail {

/// Raw-scalar core of serialization-time math. NOT for direct use: call
/// core::serialization_time(Bytes, GbitsPerSec) (core/units.h), which is
/// the strong-typed public API — a bare (uint64, double) overload at
/// namespace scope let new code silently bypass the unit layer (enforced
/// by the fplint raw-serialization-time rule and a negcompile snippet).
// fplint: ok(raw-scalar-id): this IS the raw-scalar boundary — the unit
// layer (core/units.h) is its only sanctioned caller
[[nodiscard]] constexpr Time serialization_time(std::uint64_t bytes, double gbps) {
  // ps = bytes * 8 / (gbps * 1e9) * 1e12 = bytes * 8000 / gbps
  return Time::picoseconds(static_cast<std::int64_t>(static_cast<double>(bytes) * 8000.0 / gbps));
}

}  // namespace detail

}  // namespace flowpulse::core
