#include "sched/local_search.hpp"

#include "sched/hill_climb.hpp"

namespace fppn {

LocalSearchResult optimize_priority(const TaskGraph& tg,
                                    const sched::StrategyOptions& opts) {
  // The kernel owns all simulation scratch and is reused for every
  // candidate this search evaluates — the steady-state inner loop
  // performs no heap allocation.
  sched::Evaluator kernel(tg, opts.processors);
  LocalSearchResult best = sched::hill_climb(tg, opts, kernel);
  const sched::EvalStats& st = kernel.stats();
  best.full_evals = st.full_evals;
  best.incremental_evals = st.incremental_evals;
  best.spliced_evals = st.spliced_evals;
  return best;
}

}  // namespace fppn
