// The SP hill-climb behind optimize_priority, written once over its
// scorer. Production instantiates it with sched::Evaluator (checkpointed
// incremental move scoring, local_search.cpp); the test oracle
// instantiates it with the naive testing::list_schedule + count_violations
// scorer (testing/reference_search.cpp). Both walk the identical
// trajectory — the same seeds, moves, acceptances and iterations — so any
// divergence between the two is a kernel bug, never a search difference.
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
#include "sched/visited_set.hpp"

namespace fppn {
namespace sched {

/// Consecutive non-improving moves before a start point is abandoned.
inline constexpr int kStaleLimit = 200;

/// Optimizes SP for `tg` under `opts` (processors, seed, budget and the
/// warm starts; opts.visited_set is ignored — pass it as `visited`).
/// Scores go through `scorer`; `visited` (nullable) memoizes them across
/// calls. The eval counters full/incremental/spliced are left zero for
/// the caller to fill from its scorer.
template <class Scorer>
LocalSearchResult hill_climb(const TaskGraph& tg, const StrategyOptions& opts,
                             Scorer& scorer, VisitedSet* visited) {
  const std::size_t n = tg.job_count();
  LocalSearchResult best;

  // Publish a freshly computed exact score to the shared visited-set.
  const auto publish = [&](const std::vector<JobId>& order, const EvalScore& score) {
    if (visited != nullptr) {
      visited->insert(visited->hash_order(order), score);
    }
  };
  EvalScore best_score;
  const auto adopt = [&](const EvalScore& score) {
    best_score = score;
    best.violations = score.deadline_violations;
    best.makespan = score.makespan;
  };

  // Seed with the best plain heuristic, then let any supplied start
  // points (the warm-start hook) compete on the same strict-improvement
  // terms: a start priority displaces the heuristic seed only when its
  // score is strictly better, so equal-scoring warm starts keep the
  // heuristic provenance (and the bit-identical cold result).
  for (const PriorityHeuristic h : all_heuristics()) {
    std::vector<JobId> order = schedule_priority(tg, h);
    const EvalScore score = scorer.evaluate(order);
    publish(order, score);
    if (best.priority.empty() || score.better_than(best_score)) {
      adopt(score);
      best.priority = std::move(order);
      best.start_heuristic = h;
    }
  }
  for (std::size_t p = 0; p < opts.warm_starts.size(); ++p) {
    const EvalScore score = scorer.evaluate(opts.warm_starts[p]);
    publish(opts.warm_starts[p], score);
    if (score.better_than(best_score)) {
      adopt(score);
      best.priority = opts.warm_starts[p];
      best.start_priority_index = static_cast<int>(p);
    }
  }
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
    publish(current, current_score);

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
      // Score the move: a visited-set hit skips the simulation entirely;
      // otherwise the scorer scores it off the incumbent baseline. Both
      // produce the bit-identical score for this order.
      EvalScore score;
      bool from_visited = false;
      std::uint64_t order_hash = 0;
      if (visited != nullptr) {
        order_hash = visited->hash_order(current);
        from_visited = visited->lookup(order_hash, score);
      }
      if (from_visited) {
        ++best.visited_skips;
      } else {
        score = scorer.evaluate_move(
            current, lo, hi, swap_move ? MoveKind::kSwap : MoveKind::kRotate);
        if (visited != nullptr) {
          visited->insert(order_hash, score);
        }
      }
      bool accept = score.better_than(current_score);
      bool rebaselined = false;
      if (accept) {
        // The incumbent path is always exact: a memoized score may only
        // steer rejections, so a would-be acceptance is re-verified by an
        // exact evaluation of the exact order, which also makes the new
        // incumbent the baseline of the next move.
        score = scorer.evaluate_baseline(current);
        rebaselined = true;
        accept = score.better_than(current_score);
      }
      if (accept) {
        current_score = score;
        stale = 0;
        if (score.better_than(best_score)) {
          adopt(score);
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
        if (rebaselined) {
          // A hash-collision acceptance that failed re-verification moved
          // the baseline to the rejected order; point it back at the
          // (restored) incumbent.
          (void)scorer.evaluate_baseline(current);
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
