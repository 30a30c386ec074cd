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
  // Evaluation accounting: a pure function of (tg, opts), but
  // informational only and excluded from every determinism contract.
  std::uint64_t full_evals = 0;         ///< from-scratch simulations
  std::uint64_t incremental_evals = 0;  ///< checkpoint-resumed move scores
  std::uint64_t spliced_evals = 0;      ///< moves that spliced the memoized suffix
};

/// Optimizes SP for `tg` with `opts.max_iterations` moves per start
/// point and `opts.restarts` restarts, scoring through the sched::Evaluator
/// kernel. Never returns a schedule worse than the best plain heuristic
/// (the search starts from it and only accepts improvements). A start
/// point is abandoned after 200 consecutive non-improving moves.
///
/// Deterministic: a pure function of (tg, opts) — all randomness comes
/// from opts.seed, so equal inputs yield the bit-identical schedule on
/// any platform. Bit-identical to the naive reference climb
/// (testing/reference_search.hpp). Thread safety: no shared state; safe
/// to call concurrently. Throws
/// std::invalid_argument when processors < 1 or the graph is cyclic.
[[nodiscard]] LocalSearchResult optimize_priority(const TaskGraph& tg,
                                                  const sched::StrategyOptions& opts = {});

}  // namespace fppn
