#include "sched/search.hpp"

#include <algorithm>

#include "sched/parallel_search.hpp"
#include "sched/priorities.hpp"

namespace fppn {

MinProcessorsResult min_processors(const TaskGraph& tg, std::int64_t limit) {
  MinProcessorsResult result;
  const LoadResult load = task_graph_load(tg);
  result.lower_bound = std::max<std::int64_t>(1, load.min_processors());
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
