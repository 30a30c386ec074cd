#include "runtime/sporadic_window.hpp"

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
  return window_detail::tth_from(sorted, window, window_detail::first_index(sorted, window),
                                 t);
}

}  // namespace fppn
