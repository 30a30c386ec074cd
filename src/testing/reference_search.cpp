#include "testing/reference_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sched/hill_climb.hpp"
#include "sched/partitioned.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace testing {
namespace {

/// hill_climb's scorer over the reference pipeline: no baseline state, so
/// every call is a from-scratch evaluation.
class ReferenceScorer {
 public:
  ReferenceScorer(const TaskGraph& tg, std::int64_t processors)
      : tg_(tg), processors_(processors) {}

  sched::EvalScore evaluate(const std::vector<JobId>& order) const {
    return reference_score(tg_, order, processors_);
  }
  sched::EvalScore evaluate_baseline(const std::vector<JobId>& order) const {
    return evaluate(order);
  }
  sched::EvalScore evaluate_move(const std::vector<JobId>& order, std::size_t,
                                 std::size_t, sched::MoveKind) const {
    return evaluate(order);
  }
  StaticSchedule materialize(const std::vector<JobId>& order) const {
    return list_schedule(tg_, order, processors_);
  }

 private:
  const TaskGraph& tg_;
  std::int64_t processors_;
};

/// "partitioned-wfd": WFD pinning, then the rescan list scheduler under
/// the heuristic the seed selects.
StaticSchedule reference_partitioned(const TaskGraph& tg,
                                     const sched::StrategyOptions& opts) {
  std::size_t process_count = 0;
  for (const Job& j : tg.jobs()) {
    if (!j.process.is_valid()) {
      throw std::invalid_argument("partitioned-wfd: job '" + j.name +
                                  "' has no process id");
    }
    process_count = std::max(process_count, j.process.value() + 1);
  }
  const auto& heuristics = all_heuristics();
  const PriorityHeuristic h =
      heuristics[static_cast<std::size_t>(opts.seed % heuristics.size())];
  return partitioned_list_schedule(tg, wfd_assignment(tg, process_count, opts.processors),
                                   schedule_priority(tg, h), opts.processors);
}

/// The heuristic a registered heuristic strategy is named after.
PriorityHeuristic heuristic_named(const std::string& strategy) {
  for (const PriorityHeuristic h : all_heuristics()) {
    if (to_string(h) == strategy) {
      return h;
    }
  }
  throw std::invalid_argument("reference_search: no reference pipeline for strategy '" +
                              strategy + "'");
}

}  // namespace

sched::EvalScore reference_score(const TaskGraph& tg, const std::vector<JobId>& order,
                                 std::int64_t processors) {
  const StaticSchedule s = list_schedule(tg, order, processors);
  sched::EvalScore score;
  score.makespan = s.makespan(tg);
  score.deadline_violations = s.count_violations(tg).deadline;
  return score;
}

LocalSearchResult reference_optimize_priority(const TaskGraph& tg,
                                              const sched::StrategyOptions& opts) {
  ReferenceScorer scorer(tg, opts.processors);
  return sched::hill_climb(tg, opts, scorer);
}

sched::ParallelSearchResult reference_search(const TaskGraph& tg,
                                             const sched::ParallelSearchOptions& opts) {
  const std::vector<sched::SearchCandidate> candidates =
      sched::enumerate_search_candidates(opts);
  sched::ParallelSearchResult out;
  for (const sched::SearchCandidate& c : candidates) {
    const sched::StrategyOptions sopts = sched::strategy_options_for(opts, c);
    sched::StrategyResult r;
    r.strategy = c.strategy;
    if (c.strategy == "local-search") {
      r.schedule = reference_optimize_priority(tg, sopts).schedule;
    } else if (c.strategy == "partitioned-wfd") {
      r.schedule = reference_partitioned(tg, sopts);
    } else {
      r.schedule = list_schedule(tg, heuristic_named(c.strategy), sopts.processors);
    }
    sched::finalize_result(tg, r);
    if (out.candidates == 0 ||
        sched::better_search_candidate(r, c.seed, out.best, out.seed)) {
      out.best = std::move(r);
      out.seed = c.seed;
    }
    ++out.candidates;
  }
  out.evaluated = out.candidates;
  return out;
}

}  // namespace testing
}  // namespace fppn
