// Mapping real sporadic invocations onto server-job subsets (§IV, Fig. 2).
//
// The server jobs of sporadic process p split into subsets of m_p jobs per
// user period. The subset whose jobs arrive at boundary b handles the real
// invocations that occurred in the preceding window of length T' — with
// the boundary membership decided by the functional priority between p and
// its user u(p):
//   p -> u(p):  window (a, b]  (an invocation exactly at b is handled now,
//               because p's job must precede the user job arriving at b)
//   u(p) -> p:  window [a, b)  (an invocation at b is postponed to the
//               next subset)
// where a = b - T'. The t-th job of the subset represents the t-th real
// invocation inside the window; if fewer than t occurred the job is marked
// 'false' and skipped. Windows tile the time line exactly, so every real
// invocation is handled by exactly one subset.
//
// Every function here is a pure function of its arguments (exact rational
// arithmetic, no state): deterministic, safe to call concurrently, and
// non-throwing for the argument ranges produced by the derivation —
// callers pass `sorted` ascending (tth_invocation_in binary-searches it,
// so on unsorted input it merely returns a wrong answer; it never throws).
//
// InvocationCursor gives the same answers for a run of windows of one
// process: it keeps the first in-window index of the last window and
// moves it forward, so a walk whose window starts never decrease (the
// vm's, per process) pays amortized O(1) per server job instead of a
// binary search. Both apply one membership rule (sporadic_window.cpp);
// the cursor only finds the first in-window index differently.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "rt/time.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {

/// Half-open/half-closed window (a, b] or [a, b).
struct ServerWindow {
  Time a;
  Time b;
  bool right_closed;  ///< true for (a, b], false for [a, b)

  [[nodiscard]] bool contains(const Time& t) const {
    if (right_closed) {
      return a < t && t <= b;
    }
    return a <= t && t < b;
  }
};

/// The window handled by the server subset arriving at absolute boundary
/// `b` (= frame_base + (subset-1) * T').
[[nodiscard]] ServerWindow server_window(const ServerInfo& info, Time boundary);

/// Absolute boundary of subset `subset` (1-based) of frame `frame`
/// (0-based) for a hyperperiod `h`.
[[nodiscard]] Time subset_boundary(const ServerInfo& info, std::int64_t frame,
                                   std::int64_t subset, const Duration& h);

/// The time of the t-th (1-based) real invocation inside `window`, given
/// all invocation time stamps of the process sorted ascending; nullopt
/// when fewer than t occurred — the corresponding server job is 'false'.
[[nodiscard]] std::optional<Time> tth_invocation_in(const std::vector<Time>& sorted,
                                                    const ServerWindow& window, int t);

/// tth_invocation_in over one process's script, for windows queried in
/// order. A window whose start does not move backwards (and keeps the
/// closure kind of the previous one) advances the cursor past the
/// invocations before it; any other window falls back to the binary
/// search. Answers always equal tth_invocation_in's. Holds a pointer to
/// `sorted`, which must outlive it; not thread-safe (one cursor per
/// walker).
class InvocationCursor {
 public:
  explicit InvocationCursor(const std::vector<Time>& sorted) : sorted_(&sorted) {}

  [[nodiscard]] std::optional<Time> tth_in(const ServerWindow& window, int t);

 private:
  const std::vector<Time>* sorted_;
  std::size_t first_ = 0;             ///< first index not before `last_`
  std::optional<ServerWindow> last_;  ///< the previous query's window
};

}  // namespace fppn
