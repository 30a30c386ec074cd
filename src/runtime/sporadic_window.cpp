#include "runtime/sporadic_window.hpp"

#include <algorithm>

namespace fppn {

ServerWindow server_window(const ServerInfo& info, Time boundary) {
  return ServerWindow{boundary - info.server_period, boundary,
                      info.priority_over_user};
}

Time subset_boundary(const ServerInfo& info, std::int64_t frame, std::int64_t subset,
                     const Duration& h) {
  return Time() + h * Rational(frame) + info.server_period * Rational(subset - 1);
}

std::optional<Time> tth_invocation_in(const std::vector<Time>& sorted,
                                      const ServerWindow& window, int t) {
  if (t < 1) {
    return std::nullopt;
  }
  // First index inside the window.
  const auto first = window.right_closed
                         ? std::upper_bound(sorted.begin(), sorted.end(), window.a)
                         : std::lower_bound(sorted.begin(), sorted.end(), window.a);
  const auto idx = (first - sorted.begin()) + (t - 1);
  if (idx >= static_cast<std::ptrdiff_t>(sorted.size())) {
    return std::nullopt;
  }
  const Time& cand = sorted[static_cast<std::size_t>(idx)];
  return window.contains(cand) ? std::optional<Time>(cand) : std::nullopt;
}

}  // namespace fppn
