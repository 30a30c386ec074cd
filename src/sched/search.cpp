#include "sched/search.hpp"

#include "sched/evaluator.hpp"

namespace fppn {

ScheduleAttempt best_schedule(const TaskGraph& tg, std::int64_t processors) {
  // One compiled kernel scores every heuristic order; only the returned
  // attempt is materialized into a StaticSchedule. Scores, placements and
  // the first-feasible-in-order selection are bit-identical to a
  // testing::list_schedule + count_violations pass (the kernel's
  // determinism contract).
  sched::Evaluator kernel(tg, processors);
  std::optional<PriorityHeuristic> best_h;
  std::vector<JobId> best_order;
  sched::EvalScore best_score;
  for (const PriorityHeuristic h : all_heuristics()) {
    std::vector<JobId> order = schedule_priority(tg, h);
    const sched::EvalScore score = kernel.evaluate(order);
    if (score.deadline_violations == 0) {
      ScheduleAttempt attempt;
      attempt.heuristic = h;
      attempt.feasible = true;
      attempt.makespan = score.makespan;
      attempt.schedule = kernel.materialize(order);
      return attempt;
    }
    if (!best_h.has_value() ||
        score.deadline_violations < best_score.deadline_violations) {
      best_h = h;
      best_score = score;
      best_order = std::move(order);
    }
  }
  ScheduleAttempt attempt;
  attempt.heuristic = *best_h;
  attempt.feasible = false;
  attempt.makespan = best_score.makespan;
  attempt.schedule = kernel.materialize(best_order);
  return attempt;
}

MinProcessorsResult min_processors(const TaskGraph& tg, std::int64_t limit) {
  MinProcessorsResult result;
  const LoadResult load = task_graph_load(tg);
  result.lower_bound = std::max<std::int64_t>(1, load.min_processors());
  for (std::int64_t m = result.lower_bound; m <= limit; ++m) {
    ScheduleAttempt attempt = best_schedule(tg, m);
    if (attempt.feasible) {
      result.processors = m;
      result.attempt = std::move(attempt);
      return result;
    }
  }
  return result;
}

}  // namespace fppn
