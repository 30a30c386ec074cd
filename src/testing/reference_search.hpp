// The naive reference search — the semantics production search must
// reproduce bit for bit, kept as a test oracle rather than a production
// option. Production schedules every strategy through the incremental
// evaluation kernel (sched/evaluator.hpp) and runs candidates on a
// thread pool; the oracle does neither, and schedules no candidate through a registered strategy:
//
//   reference_score               list_schedule + count_violations
//   reference_optimize_priority   the same hill-climb as optimize_priority
//                                 (sched/hill_climb.hpp), every score from
//                                 scratch through reference_score
//   reference_search              parallel_search's candidate matrix, run
//                                 serially and ranked by
//                                 better_search_candidate:
//     the four heuristics           list_schedule of the heuristic order
//     local-search                  the reference climb
//     partitioned-wfd               wfd_assignment +
//                                   partitioned_list_schedule
//
// list_schedule and partitioned_list_schedule are the O(n²) rescans of
// testing/list_scheduler.hpp; every result is scored by finalize_result.
//
// The differential suites (tests/evaluator_test.cpp) and the fuzz loop's
// reference-winner check (gen/fuzz.cpp) compare production against these.
// Deterministic and stateless; safe to call concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/evaluator.hpp"
#include "sched/local_search.hpp"
#include "sched/parallel_search.hpp"

namespace fppn {
namespace testing {

/// The score of `order`: full list schedule, then the counts-only
/// feasibility pass. Throws like testing::list_schedule.
[[nodiscard]] sched::EvalScore reference_score(const TaskGraph& tg,
                                               const std::vector<JobId>& order,
                                               std::int64_t processors);

/// optimize_priority with every candidate scored from scratch by
/// reference_score. Every result field equals optimize_priority's except the evaluation counters,
/// which stay zero. Throws like optimize_priority.
[[nodiscard]] LocalSearchResult reference_optimize_priority(
    const TaskGraph& tg, const sched::StrategyOptions& opts = {});

/// The winner parallel_search(tg, opts) must pick: every candidate of
/// enumerate_search_candidates(opts) evaluated serially by its reference
/// pipeline and ranked by better_search_candidate. opts.workers and
/// opts.cache are ignored. Fills best, seed, candidates and evaluated. Throws like parallel_search, and std::invalid_argument
/// for a candidate strategy outside the built-in set above.
[[nodiscard]] sched::ParallelSearchResult reference_search(
    const TaskGraph& tg, const sched::ParallelSearchOptions& opts = {});

}  // namespace testing
}  // namespace fppn
