// Lossless int64 tick grids for exact model time.
//
// A grid of L ticks per millisecond holds every Rational whose
// denominator divides L: its tick count is num * (L / den), an exact
// rescaling, never a rounding. The task-graph view (CompiledTaskGraph)
// and the vm's frame loop (runtime/vm_runtime.cpp) build their grids
// from these two checked steps and fall back to exact Rational time when
// either fails.
#pragma once

#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>

#include "rt/rational.hpp"

namespace fppn::ticks {

/// l = lcm(l, den) for l, den > 0; false (l unchanged) when the lcm
/// leaves int64.
inline bool lcm_into(std::int64_t& l, std::int64_t den) {
  if (den == 1) {  // whole milliseconds, the common case: no division
    return true;
  }
  const std::int64_t reduced = l / std::gcd(l, den);
  if (reduced > std::numeric_limits<std::int64_t>::max() / den) {
    return false;
  }
  l = reduced * den;
  return true;
}

/// The tick count of `value` on a grid of `l` ticks per ms; nullopt when
/// its denominator does not divide `l` or the count leaves int64.
inline std::optional<std::int64_t> on_grid(const Rational& value, std::int64_t l) {
  if (value.den() == l) {  // a whole-ms value on the whole-ms grid, or den == l
    return value.num();
  }
  if (l % value.den() != 0) {
    return std::nullopt;
  }
  const __int128 wide = static_cast<__int128>(value.num()) * (l / value.den());
  if (wide > std::numeric_limits<std::int64_t>::max() ||
      wide < std::numeric_limits<std::int64_t>::min()) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(wide);
}

}  // namespace fppn::ticks
