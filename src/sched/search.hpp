// Schedulability search helpers built on the evaluation kernel's list
// scheduling (sched/evaluator.hpp): find a feasible schedule with the best
// heuristic, and the minimum processor count that admits one (the
// experiment loop of §V).
#pragma once

#include <optional>

#include "sched/priorities.hpp"
#include "sched/static_schedule.hpp"
#include "taskgraph/analysis.hpp"

namespace fppn {

struct ScheduleAttempt {
  StaticSchedule schedule;
  PriorityHeuristic heuristic = PriorityHeuristic::kAlapEdf;
  bool feasible = false;
  Time makespan;
};

/// Tries every heuristic on M processors; returns the first feasible
/// schedule (heuristics in all_heuristics() order), else the attempt with
/// the fewest deadline violations. Deterministic and safe to call
/// concurrently; throws std::invalid_argument like sched::Evaluator
/// (cyclic graph, processors < 1).
[[nodiscard]] ScheduleAttempt best_schedule(const TaskGraph& tg, std::int64_t processors);

struct MinProcessorsResult {
  std::int64_t processors = 0;   ///< smallest feasible M, 0 when none <= limit
  std::int64_t lower_bound = 0;  ///< ceil(Load) from Prop. 3.1
  std::optional<ScheduleAttempt> attempt;
};

/// Finds the smallest M in [max(1, ceil(Load)), limit] with a feasible
/// list schedule under any heuristic. Deterministic and safe to call
/// concurrently; throws like best_schedule.
[[nodiscard]] MinProcessorsResult min_processors(const TaskGraph& tg,
                                                 std::int64_t limit = 64);

}  // namespace fppn
