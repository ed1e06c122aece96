#pragma once

// The `--name=value` command-line flags of flowpulsed, its operator tools
// (flowpulse-bench, flowpulse-merge) and flowpulse_cli. A numeric value
// must parse whole and fit its field; a flag whose value does not is
// refused, and each program reports it like an unknown flag (exit 2).

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace flowpulse::daemon {

/// If `arg` is `name=VALUE` (`name` with its leading dashes), store VALUE
/// in *out and return true.
inline bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

/// Parse all of `text` as a T: a decimal integer for integral T (no sign
/// for unsigned T), a finite decimal number for floating-point T. Returns
/// false, leaving *out as it was, if anything is left over or the value
/// does not fit T.
template <typename T>
bool parse_number(std::string_view text, T* out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

/// `arg` is `name=VALUE` and VALUE parses whole into *out. A matching name
/// with a bad value also returns false, so the caller's chain of flags
/// falls through to its unknown-flag report.
template <typename T>
bool parse_num(const char* arg, const char* name, T* out) {
  std::string value;
  return parse_flag(arg, name, &value) && parse_number(value, out);
}

}  // namespace flowpulse::daemon
