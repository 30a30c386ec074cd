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

namespace {

/// True when `x` lies before `window`, i.e. at or before a for (a, b],
/// before a for [a, b). The invocations before a window form a prefix of
/// the sorted script.
bool before_window(const Time& x, const ServerWindow& window) {
  return window.right_closed ? x <= window.a : x < window.a;
}

/// First index of `sorted` inside or after `window`.
std::size_t first_index(const std::vector<Time>& sorted, const ServerWindow& window) {
  const auto first =
      std::partition_point(sorted.begin(), sorted.end(),
                           [&window](const Time& x) { return before_window(x, window); });
  return static_cast<std::size_t>(first - sorted.begin());
}

/// The membership rule: the t-th invocation from the window's first
/// index, when it exists and lies inside the window.
std::optional<Time> tth_from(const std::vector<Time>& sorted, const ServerWindow& window,
                             std::size_t first, int t) {
  if (t < 1) {
    return std::nullopt;
  }
  const std::size_t idx = first + static_cast<std::size_t>(t - 1);
  if (idx >= sorted.size()) {
    return std::nullopt;
  }
  const Time& cand = sorted[idx];
  return window.contains(cand) ? std::optional<Time>(cand) : std::nullopt;
}

}  // namespace

std::optional<Time> tth_invocation_in(const std::vector<Time>& sorted,
                                      const ServerWindow& window, int t) {
  return tth_from(sorted, window, first_index(sorted, window), t);
}

std::optional<Time> InvocationCursor::tth_in(const ServerWindow& window, int t) {
  const std::vector<Time>& sorted = *sorted_;
  if (last_.has_value() && last_->right_closed == window.right_closed &&
      last_->a <= window.a) {
    while (first_ < sorted.size() && before_window(sorted[first_], window)) {
      ++first_;
    }
  } else {
    first_ = first_index(sorted, window);
  }
  last_ = window;
  return tth_from(sorted, window, first_, t);
}

}  // namespace fppn
