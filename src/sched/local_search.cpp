#include "sched/local_search.hpp"

#include "sched/hill_climb.hpp"

namespace fppn {

LocalSearchResult optimize_priority(const TaskGraph& tg,
                                    const sched::StrategyOptions& opts) {
  const sched::SearchContext ctx(tg, opts.processors);
  return optimize_priority(ctx, opts);
}

LocalSearchResult optimize_priority(const sched::SearchContext& ctx,
                                    const sched::StrategyOptions& opts) {
  // The kernel owns all simulation scratch and is reused for every
  // candidate this search evaluates — the steady-state inner loop
  // performs no heap allocation. Built before the start points are read,
  // so a cyclic graph or processors < 1 fails with the kernel's message.
  sched::Evaluator kernel(ctx.compiled(), ctx.processors());
  std::vector<sched::StartPoint> starts;
  for (const PriorityHeuristic h : all_heuristics()) {
    const sched::HeuristicRun& run = ctx.heuristic(h);
    starts.push_back({h, &run.order, run.score});
  }
  LocalSearchResult best = sched::hill_climb(starts, opts, kernel);
  const sched::EvalStats& st = kernel.stats();
  best.full_evals = st.full_evals;
  best.incremental_evals = st.incremental_evals;
  best.spliced_evals = st.spliced_evals;
  return best;
}

}  // namespace fppn
