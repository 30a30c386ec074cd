// SchedulerStrategy — the uniform interface every scheduling policy in the
// engine implements (§III-B policies: the four SP heuristics and the
// local-search optimizer, plus anything users register).
//
// A strategy maps a search context (sched/search_context.hpp: the graph,
// the processor count, the shared compiled view and the lazily simulated
// heuristic orders) and one config value (StrategyOptions) to a static
// schedule; callers discover strategies by name through the
// StrategyRegistry (sched/registry.hpp) and never name concrete heuristic
// functions. The parallel schedule search (sched/parallel_search.hpp) fans
// out over registered strategies and seeds on one context per search, so
// no candidate compiles the graph or simulates a heuristic order another
// candidate already did. Every built-in strategy — the four heuristics,
// local search and partitioned-wfd — schedules through the evaluation
// kernel (sched/evaluator.hpp). The O(n²) rescans they reproduce bit for
// bit are test oracles under src/testing (testing/list_scheduler.hpp,
// testing/reference_search.hpp), not a strategy option.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/search_context.hpp"
#include "sched/static_schedule.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {
namespace sched {

/// A named search budget: the seeds tried per seedable strategy and the
/// move budget of iterative ones.
struct SearchPreset {
  int seeds_per_strategy;
  int max_iterations;
  int restarts;
};

/// The quick preset: a plain fppn_tool call and every fppn_serve request
/// unless --optimize is given.
inline constexpr SearchPreset kQuickPreset{1, 400, 1};
/// The optimizing preset (--optimize), and the default budget of
/// StrategyOptions and ParallelSearchOptions.
inline constexpr SearchPreset kOptimizePreset{3, 2000, 2};

/// The one budget record: options understood by every strategy, the one
/// config value a strategy receives, passed down unchanged
/// (optimize_priority takes it as is). ParallelSearchOptions and the
/// cache's CacheKey (hence the .sched entry header) extend it rather than
/// restate it. Iteration/seed fields are ignored by strategies that are
/// not iterative/seedable.
struct StrategyOptions {
  std::int64_t processors = 2;
  std::uint64_t seed = 1;  ///< RNG seed, seedable strategies only
  /// Move budget, iterative strategies only.
  int max_iterations = kOptimizePreset.max_iterations;
  /// Restart count, iterative strategies only.
  int restarts = kOptimizePreset.restarts;
};

/// Outcome of one strategy invocation, with the schedule already evaluated
/// under the lexicographic objective (deadline violations, makespan).
struct StrategyResult {
  StaticSchedule schedule;
  std::string strategy;               ///< name of the producing strategy
  std::string detail;                 ///< human-readable provenance
  std::size_t deadline_violations = 0;
  Time makespan;
  bool feasible = false;
  // Evaluation accounting (iterative strategies; zero elsewhere).
  // A pure function of (tg, opts), but informational only: never
  // serialized by the schedule cache and never part of any determinism
  // contract.
  std::uint64_t full_evals = 0;         ///< from-scratch simulations
  std::uint64_t incremental_evals = 0;  ///< checkpoint-resumed move scores
  std::uint64_t spliced_evals = 0;      ///< moves spliced into a memoized suffix
};

class SchedulerStrategy {
 public:
  virtual ~SchedulerStrategy() = default;

  /// Registry key; stable, lowercase, dash-separated.
  [[nodiscard]] virtual std::string name() const = 0;

  /// One-line description for --help output.
  [[nodiscard]] virtual std::string description() const = 0;

  /// True when different seeds can yield different schedules. The parallel
  /// search enumerates seeds only for seedable strategies.
  [[nodiscard]] virtual bool seedable() const { return false; }

  /// Computes a complete schedule for `ctx.graph()` on `ctx.processors()`
  /// processors (the context fixes the processor count; callers build it
  /// from opts.processors). Implementations must be deterministic
  /// functions of (graph, opts) — all randomness derived from opts.seed —
  /// and safe to call from multiple threads on distinct instances sharing
  /// one context (the registry hands every caller a fresh instance).
  /// Implementations may throw std::invalid_argument for graphs/options
  /// they cannot schedule (e.g. cyclic graphs, processors < 1); the
  /// parallel search rethrows on the calling thread.
  [[nodiscard]] virtual StrategyResult schedule(const SearchContext& ctx,
                                                const StrategyOptions& opts) const = 0;

  /// Standalone call: schedules `tg` on a fresh context built for
  /// opts.processors. Same result as the context overload.
  [[nodiscard]] StrategyResult schedule(const TaskGraph& tg,
                                        const StrategyOptions& opts) const;
};

/// Fills deadline_violations / makespan / feasible of `result` from its
/// schedule with the exact Rational walk (StaticSchedule::makespan and
/// count_violations). The scorer of the cache's first hit, of user
/// strategies and of the reference oracle (testing/reference_search.hpp),
/// which thus stays independent of the tick scorer below.
/// Deterministic and thread-safe (pure function of tg + the schedule);
/// never throws.
void finalize_result(const TaskGraph& tg, StrategyResult& result);

/// The same fill on the context's compiled view — the scorer of every
/// built-in strategy: StaticSchedule::score_on_ticks, or the TaskGraph
/// overload when the view has no ticks, a start is off the tick grid or
/// an add overflows. Every result, fresh or cached, is scored
/// identically: tests/tick_scoring_test.cpp checks both overloads on
/// every candidate schedule of every built-in strategy. Deterministic,
/// thread-safe; never throws.
void finalize_result(const SearchContext& ctx, StrategyResult& result);

}  // namespace sched
}  // namespace fppn
