// Task-graph timing analysis (§III-B): ASAP start times, ALAP completion
// times, the precedence-aware load metric and the necessary schedulability
// condition of Prop. 3.1.
//
//   A'_i = max(A_i, max_{j in Pred(i)} A'_j + C_j)
//   D'_i = min(D_i, min_{j in Succ(i)} D'_j - C_j)
//
//   Load(TG) = max_{0 <= t1 < t2} (sum of C_i over jobs fully inside
//              [t1, t2], i.e. t1 <= A'_i and D'_i <= t2) / (t2 - t1)
//
// Prop. 3.1: TG schedulable on M processors only if every job fits its
// [A'_i, D'_i] window (A'_i + C_i <= D'_i) and ceil(Load(TG)) <= M.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "taskgraph/task_graph.hpp"

namespace fppn {

/// ASAP start time A'_i for every job (indexed by JobId). Throws on cycles.
[[nodiscard]] std::vector<Time> asap_times(const TaskGraph& tg);

/// ALAP completion time D'_i for every job. Throws on cycles.
[[nodiscard]] std::vector<Time> alap_times(const TaskGraph& tg);

/// The load metric, plus the witness window achieving it.
struct LoadResult {
  Rational load;       ///< max window density (0 for an empty graph)
  Time window_start;   ///< t1 of the maximizing window
  Time window_end;     ///< t2 of the maximizing window
  Duration window_work;///< sum of C_i inside the window

  [[nodiscard]] double load_value() const { return load.to_double(); }
  /// ceil(Load) — minimum processor count implied by Prop. 3.1.
  [[nodiscard]] std::int64_t min_processors() const { return load.ceil(); }
};

/// Computes Load(TG). O(n^2 log n) over the distinct A'/D' candidates.
[[nodiscard]] LoadResult task_graph_load(const TaskGraph& tg);

/// Same but with caller-supplied ASAP/ALAP vectors (avoids recomputation).
[[nodiscard]] LoadResult task_graph_load(const TaskGraph& tg,
                                         const std::vector<Time>& asap,
                                         const std::vector<Time>& alap);

/// Prop. 3.1 verdict.
struct NecessaryCondition {
  bool window_fit = true;     ///< all A'_i + C_i <= D'_i
  std::optional<JobId> first_unfit_job;
  LoadResult load;
  bool load_fits = true;      ///< ceil(load) <= M

  [[nodiscard]] bool holds() const { return window_fit && load_fits; }
};

/// Evaluates the necessary schedulability condition for M processors.
[[nodiscard]] NecessaryCondition check_necessary_condition(const TaskGraph& tg,
                                                           std::int64_t processors);

}  // namespace fppn
