#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

#include "core/time.h"

namespace flowpulse::core {

/// Strong byte count. Only physically meaningful arithmetic compiles:
/// Bytes ± Bytes, Bytes × integer, Bytes / Bytes (a pure ratio), and
/// Bytes / Time → GbitsPerSec. Bytes + Packets is a compile error —
/// exactly the counter mix-up class FlowPulse's per-port attribution
/// cannot afford (the whole signal is byte volume per port per iteration).
class Bytes {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t count) : count_{count} {}

  [[nodiscard]] constexpr std::uint64_t v() const { return count_; }
  /// Lossy crossing into model space (predictions are fractional doubles).
  [[nodiscard]] constexpr double dbl() const { return static_cast<double>(count_); }

  constexpr Bytes& operator+=(Bytes rhs) {
    count_ += rhs.count_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes rhs) {
    count_ -= rhs.count_;
    return *this;
  }

  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.count_ + b.count_}; }
  friend constexpr Bytes operator-(Bytes a, Bytes b) { return Bytes{a.count_ - b.count_}; }
  friend constexpr Bytes operator*(Bytes a, std::uint64_t k) { return Bytes{a.count_ * k}; }
  friend constexpr Bytes operator*(std::uint64_t k, Bytes a) { return Bytes{a.count_ * k}; }
  friend constexpr Bytes operator/(Bytes a, std::uint64_t k) { return Bytes{a.count_ / k}; }
  /// Dimensionless ratio (e.g. segments = payload / mtu).
  friend constexpr std::uint64_t operator/(Bytes a, Bytes b) { return a.count_ / b.count_; }
  friend constexpr std::uint64_t operator%(Bytes a, Bytes b) { return a.count_ % b.count_; }
  friend constexpr auto operator<=>(Bytes a, Bytes b) = default;

  friend std::ostream& operator<<(std::ostream& os, Bytes b) { return os << b.count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Strong packet count. Deliberately NOT interconvertible with Bytes.
class Packets {
 public:
  constexpr Packets() = default;
  constexpr explicit Packets(std::uint64_t count) : count_{count} {}

  [[nodiscard]] constexpr std::uint64_t v() const { return count_; }
  [[nodiscard]] constexpr double dbl() const { return static_cast<double>(count_); }

  constexpr Packets& operator+=(Packets rhs) {
    count_ += rhs.count_;
    return *this;
  }
  constexpr Packets& operator-=(Packets rhs) {
    count_ -= rhs.count_;
    return *this;
  }
  constexpr Packets& operator++() {
    ++count_;
    return *this;
  }

  friend constexpr Packets operator+(Packets a, Packets b) {
    return Packets{a.count_ + b.count_};
  }
  friend constexpr Packets operator-(Packets a, Packets b) {
    return Packets{a.count_ - b.count_};
  }
  friend constexpr Packets operator*(Packets a, std::uint64_t k) {
    return Packets{a.count_ * k};
  }
  friend constexpr Packets operator*(std::uint64_t k, Packets a) {
    return Packets{a.count_ * k};
  }
  friend constexpr auto operator<=>(Packets a, Packets b) = default;

  friend std::ostream& operator<<(std::ostream& os, Packets p) { return os << p.count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Strong link rate. 1 Gbit/s == 1 bit/ns, so rate and serialization
/// arithmetic against the picosecond core::Time stays exact in the same way
/// the serialization-time math always was.
class GbitsPerSec {
 public:
  constexpr GbitsPerSec() = default;
  constexpr explicit GbitsPerSec(double gbps) : gbps_{gbps} {}

  [[nodiscard]] constexpr double v() const { return gbps_; }

  friend constexpr GbitsPerSec operator*(GbitsPerSec r, double k) {
    return GbitsPerSec{r.gbps_ * k};
  }
  friend constexpr GbitsPerSec operator*(double k, GbitsPerSec r) {
    return GbitsPerSec{r.gbps_ * k};
  }
  friend constexpr double operator/(GbitsPerSec a, GbitsPerSec b) { return a.gbps_ / b.gbps_; }
  friend constexpr auto operator<=>(GbitsPerSec a, GbitsPerSec b) = default;

  friend std::ostream& operator<<(std::ostream& os, GbitsPerSec r) {
    return os << r.gbps_ << "Gbps";
  }

 private:
  double gbps_ = 0.0;
};

/// Average rate of `b` bytes over duration `t`: bits / ns == Gbit/s.
[[nodiscard]] constexpr GbitsPerSec operator/(Bytes b, Time t) {
  return GbitsPerSec{b.dbl() * 8.0 / t.ns()};
}

/// Volume a link of rate `r` moves in `t` (floor to whole bytes).
[[nodiscard]] constexpr Bytes operator*(GbitsPerSec r, Time t) {
  return Bytes{static_cast<std::uint64_t>(r.v() * t.ns() / 8.0)};
}
[[nodiscard]] constexpr Bytes operator*(Time t, GbitsPerSec r) { return r * t; }

/// Time to serialize `b` on a link of rate `r` — the strong-typed face of
/// the raw core::detail::serialization_time math, and the only sanctioned
/// way to reach it.
[[nodiscard]] constexpr Time serialization_time(Bytes b, GbitsPerSec r) {
  // fplint: ok(raw-serialization-time): the unit layer's single blessed
  // call into the raw-scalar detail math
  return detail::serialization_time(b.v(), r.v());
}

}  // namespace flowpulse::core
