// The experiment loop of §V: the minimum processor count that admits a
// feasible static schedule. Each processor count M is asked of the
// production search (sched/parallel_search.hpp), restricted to the four
// SP heuristic strategies, so the schedule it reports is the one that
// search ranks best — there is no second winner rule.
#pragma once

#include <optional>

#include "sched/strategy.hpp"
#include "taskgraph/analysis.hpp"

namespace fppn {

struct MinProcessorsResult {
  std::int64_t processors = 0;   ///< smallest feasible M, 0 when none <= limit
  std::int64_t lower_bound = 0;  ///< ceil(Load) from Prop. 3.1
  /// The four-heuristic search's winner on `processors`; empty when no M
  /// up to the limit is feasible.
  std::optional<sched::StrategyResult> attempt;
};

/// Finds the smallest M in [max(1, ceil(Load)), limit] at which some SP
/// heuristic list-schedules `tg` feasibly: M is feasible exactly when the
/// winner of sched::parallel_search over the heuristic strategies (1
/// worker, no cache) is. Deterministic and safe to call concurrently;
/// throws std::invalid_argument like sched::Evaluator (cyclic graph).
[[nodiscard]] MinProcessorsResult min_processors(const TaskGraph& tg,
                                                 std::int64_t limit = 64);

}  // namespace fppn
