// SchedulerStrategy — the uniform interface every scheduling policy in the
// engine implements (§III-B policies: the four SP heuristics and the
// local-search optimizer, plus anything users register).
//
// A strategy maps a task graph and one config value (StrategyOptions) to
// a static schedule; callers discover strategies by name through the
// StrategyRegistry (sched/registry.hpp) and never name concrete heuristic
// functions. The parallel schedule search (sched/parallel_search.hpp) fans
// out over registered strategies and seeds. Every built-in strategy — the
// four heuristics, local search and partitioned-wfd — schedules through
// the evaluation kernel (sched/evaluator.hpp). The O(n²) rescans they
// reproduce bit for bit are test oracles under src/testing
// (testing/list_scheduler.hpp, testing/reference_search.hpp), not a
// strategy option.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/static_schedule.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {
namespace sched {

/// Options understood by every strategy — the one config value a
/// strategy receives, passed down unchanged (optimize_priority takes it
/// as is). Iteration/seed fields are ignored by strategies that are not
/// iterative/seedable.
struct StrategyOptions {
  std::int64_t processors = 2;
  std::uint64_t seed = 1;      ///< RNG seed, seedable strategies only
  int max_iterations = 2000;   ///< move budget, iterative strategies only
  int restarts = 2;            ///< restart count, iterative strategies only
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

  /// Computes a complete schedule for `tg`. Implementations must be
  /// deterministic functions of (tg, opts) — all randomness derived from
  /// opts.seed — and safe to call from multiple threads on distinct
  /// instances (the registry hands every caller a fresh instance).
  /// Implementations may throw std::invalid_argument for graphs/options
  /// they cannot schedule (e.g. cyclic graphs, processors < 1); the
  /// parallel search rethrows on the calling thread.
  [[nodiscard]] virtual StrategyResult schedule(const TaskGraph& tg,
                                                const StrategyOptions& opts) const = 0;
};

/// Fills deadline_violations / makespan / feasible of `result` from its
/// schedule — shared by all strategy implementations (and by cache
/// lookups) so every result, fresh or cached, is scored identically.
/// Deterministic and thread-safe (pure function of tg + the schedule);
/// never throws.
void finalize_result(const TaskGraph& tg, StrategyResult& result);

}  // namespace sched
}  // namespace fppn
