#include "sched/search.hpp"

#include <algorithm>

#include "sched/parallel_search.hpp"
#include "sched/priorities.hpp"

namespace fppn {

MinProcessorsResult min_processors(const TaskGraph& tg, std::int64_t limit) {
  MinProcessorsResult result;
  const NecessaryCondition nc = check_necessary_condition(tg, limit);
  result.lower_bound = std::max<std::int64_t>(1, nc.load.min_processors());
  if (!nc.window_fit) {
    return result;  // a job misses its deadline on any M (Prop. 3.1)
  }
  sched::ParallelSearchOptions opts;
  opts.workers = 1;
  for (const PriorityHeuristic h : all_heuristics()) {
    opts.strategies.push_back(to_string(h));
  }
  for (std::int64_t m = result.lower_bound; m <= limit; ++m) {
    opts.processors = m;
    sched::ParallelSearchResult search = sched::parallel_search(tg, opts);
    if (search.best.feasible) {
      result.processors = m;
      result.attempt = std::move(search.best);
      return result;
    }
  }
  return result;
}

}  // namespace fppn
