#include "sched/search_context.hpp"

#include <exception>
#include <optional>
#include <utility>
#include <vector>

namespace fppn {
namespace sched {

SearchContext::SearchContext(const TaskGraph& tg, std::int64_t processors)
    : tg_(&tg),
      processors_(processors),
      compiled_(std::make_shared<const CompiledTaskGraph>(CompiledTaskGraph::compile(tg))) {}

const HeuristicRun& SearchContext::heuristic(PriorityHeuristic h) const {
  const auto slot = static_cast<std::size_t>(h);
  std::call_once(filled_[slot], [&] {
    // No exception leaves call_once: a callable that throws is retried
    // by the next caller, but some implementations (ThreadSanitizer's
    // interceptor among them) then block forever. The slot keeps the
    // exception instead.
    try {
      HeuristicRun& run = runs_[slot];
      // Order first, on the view's ticks when it has them. Otherwise the
      // Rational oracle: under alap-edf and b-level a cyclic graph fails
      // there, in the heuristic's own analysis, with its own message.
      std::optional<std::vector<JobId>> order = schedule_priority(*compiled_, h);
      run.order = order ? std::move(*order) : schedule_priority(*tg_, h);
      run.schedule = Evaluator(compiled_, processors_).materialize(run.order, run.score);
    } catch (...) {
      errors_[slot] = std::current_exception();
    }
  });
  if (errors_[slot]) {
    std::rethrow_exception(errors_[slot]);
  }
  return runs_[slot];
}

}  // namespace sched
}  // namespace fppn
