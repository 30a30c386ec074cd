// Schedule-priority optimization by local search (§III-B: "Different
// heuristics exist for optimizing priority order SP [8]").
//
// List scheduling maps an SP total order to a schedule; this module
// searches the order space: starting from the best heuristic order, it
// hill-climbs with job-reordering moves under the lexicographic objective
//   (deadline-violation count, makespan)
// and optional seeded random restarts. Deterministic for a given seed.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/priorities.hpp"
#include "sched/strategy.hpp"

namespace fppn {

struct LocalSearchResult {
  StaticSchedule schedule;
  std::vector<JobId> priority;     ///< the SP order that produced it
  std::size_t violations = 0;      ///< deadline violations of the best
  Time makespan;
  bool feasible = false;
  int iterations_used = 0;
  PriorityHeuristic start_heuristic = PriorityHeuristic::kAlapEdf;
  /// Index into StrategyOptions::warm_starts when one of the supplied
  /// start points beat every heuristic at seeding time; -1 when
  /// a plain heuristic won (start_heuristic names it).
  int start_priority_index = -1;
  // Evaluation accounting (informational; deliberately excluded from
  // every determinism contract — visited_skips depends on cross-worker
  // interleaving when the visited-set is shared).
  std::uint64_t full_evals = 0;         ///< from-scratch simulations
  std::uint64_t incremental_evals = 0;  ///< checkpoint-resumed move scores
  std::uint64_t spliced_evals = 0;      ///< moves that spliced the memoized suffix
  std::uint64_t visited_skips = 0;      ///< evaluations skipped via the visited-set
};

/// Optimizes SP for `tg` with `opts.max_iterations` moves per start
/// point and `opts.restarts` restarts, scoring through the sched::Evaluator
/// kernel. Never returns a schedule worse than the best plain heuristic
/// or any of `opts.warm_starts` (the search starts from the best of them
/// and only accepts improvements). Each warm start must be a permutation
/// of all jobs, or std::invalid_argument is thrown. A start point is
/// abandoned after 200 consecutive non-improving moves.
///
/// `opts.visited_set` (optional, caller-owned) memoizes exact scores of
/// already-seen orders; hits may only steer rejections, so the trajectory,
/// winner and iterations_used are bit-identical with or without it.
///
/// Deterministic: a pure function of (tg, opts) — all randomness comes
/// from opts.seed, so equal inputs yield the bit-identical schedule on
/// any platform. Bit-identical to the naive reference climb
/// (testing/reference_search.hpp). Thread safety: no shared state beyond
/// the visited-set; safe to call concurrently. Throws
/// std::invalid_argument when processors < 1 or the graph is cyclic.
[[nodiscard]] LocalSearchResult optimize_priority(const TaskGraph& tg,
                                                  const sched::StrategyOptions& opts = {});

}  // namespace fppn
