// The SP hill-climb behind optimize_priority, written once over its
// scorer. Production instantiates it with sched::Evaluator (incremental
// move scoring: checkpoint resume and suffix splice, local_search.cpp);
// the test oracle
// instantiates it with the naive testing::list_schedule + count_violations
// scorer (testing/reference_search.cpp). Both walk the identical
// trajectory — the same seeds, moves, acceptances and iterations — so any
// divergence between the two is a kernel bug, never a search difference.
//
// The climb's start points — every heuristic order with its score — come
// from the caller: production passes the search context's heuristic
// slots (sched/search_context.hpp), which every candidate of a search
// shares, and the oracle scores the orders itself with its naive scorer,
// so the trajectory differential also proves the slots right.
//
// A Scorer provides, each returning the exact score of `order`:
//   EvalScore evaluate(order)                      a plain evaluation
//   EvalScore evaluate_baseline(order)             also makes `order` the
//                                                  baseline of later moves
//   EvalScore evaluate_move(order, lo, hi, kind)   `order` is the baseline
//                                                  perturbed by one move
//   StaticSchedule materialize(order)              the full schedule
#pragma once

#include <algorithm>
#include <random>
#include <vector>

#include "sched/evaluator.hpp"
#include "sched/local_search.hpp"

namespace fppn {
namespace sched {

/// Consecutive non-improving moves before a start point is abandoned.
inline constexpr int kStaleLimit = 200;

/// One start point of the climb: a heuristic's SP order (not owned) and
/// its exact score.
struct StartPoint {
  PriorityHeuristic heuristic = PriorityHeuristic::kAlapEdf;
  const std::vector<JobId>* order = nullptr;
  EvalScore score;
};

/// Optimizes SP from `starts` (one per heuristic, in all_heuristics()
/// order) under `opts` (seed and budget; the scorer fixes the
/// processors). Every move score comes from `scorer`, so its evaluation
/// counts are a pure function of (graph, opts). The eval counters
/// full/incremental/spliced are left zero for the caller to fill from its
/// scorer.
template <class Scorer>
LocalSearchResult hill_climb(const std::vector<StartPoint>& starts,
                             const StrategyOptions& opts, Scorer& scorer) {
  LocalSearchResult best;

  EvalScore best_score;
  const auto adopt = [&](const EvalScore& score) {
    best_score = score;
    best.violations = score.deadline_violations;
    best.makespan = score.makespan;
  };

  // Seed with the best plain heuristic; the first one wins ties.
  for (const StartPoint& start : starts) {
    if (best.priority.empty() || start.score.better_than(best_score)) {
      adopt(start.score);
      best.priority = *start.order;
      best.start_heuristic = start.heuristic;
    }
  }
  const std::size_t n = best.priority.size();
  if (n < 2) {
    best.schedule = scorer.materialize(best.priority);
    best.feasible = best.violations == 0;
    return best;
  }

  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);

  for (int restart = 0; restart <= opts.restarts; ++restart) {
    std::vector<JobId> current = best.priority;
    if (restart > 0) {
      // Perturb the incumbent rather than starting from random noise.
      for (std::size_t k = 0; k < n / 4 + 1; ++k) {
        std::swap(current[pick(rng)], current[pick(rng)]);
      }
    }
    EvalScore current_score = scorer.evaluate_baseline(current);

    int stale = 0;
    for (int it = 0; it < opts.max_iterations && stale < kStaleLimit; ++it) {
      ++best.iterations_used;
      // Move: pull a job earlier (insertion) three times out of four,
      // swap two positions otherwise. Insertion is the workhorse
      // neighborhood for permutation scheduling — it fixes late chains
      // with a minimal perturbation, and its divergence window under the
      // incremental kernel is just the pulled job's frame, so these moves
      // also re-score cheapest. Swaps stay in the mix to fix local
      // inversions insertion cannot express in one step. Applied in place
      // on the reusable buffer and undone on rejection — no per-candidate
      // copy.
      const std::size_t i = pick(rng);
      std::size_t j = pick(rng);
      if (i == j) {
        j = (j + 1) % n;
      }
      const std::size_t lo = std::min(i, j);
      const std::size_t hi = std::max(i, j);
      const bool swap_move = (rng() & 3U) == 0U;
      if (swap_move) {
        std::swap(current[i], current[j]);
      } else {
        // current[hi] moves to position lo; [lo, hi) shifts right.
        std::rotate(current.begin() + static_cast<std::ptrdiff_t>(lo),
                    current.begin() + static_cast<std::ptrdiff_t>(hi),
                    current.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
      }
      const EvalScore score = scorer.evaluate_move(
          current, lo, hi, swap_move ? MoveKind::kSwap : MoveKind::kRotate);
      if (score.better_than(current_score)) {
        // Re-score the accepted order as the baseline of the next move;
        // the score is the same, only the scorer's baseline moves.
        current_score = scorer.evaluate_baseline(current);
        stale = 0;
        if (current_score.better_than(best_score)) {
          adopt(current_score);
          best.priority = current;
        }
      } else {
        ++stale;
        if (swap_move) {
          std::swap(current[i], current[j]);
        } else {
          std::rotate(current.begin() + static_cast<std::ptrdiff_t>(lo),
                      current.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                      current.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        }
      }
      if (best.violations == 0 && restart == opts.restarts) {
        break;  // feasible and no more restarts pending: good enough
      }
    }
  }
  // The schedule is materialized once, for the winner only — score-only
  // evaluations above never build a StaticSchedule.
  best.schedule = scorer.materialize(best.priority);
  best.feasible = best.violations == 0;
  return best;
}

}  // namespace sched
}  // namespace fppn
