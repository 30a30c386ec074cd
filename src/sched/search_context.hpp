// sched::SearchContext — the read-only state every candidate of one
// search shares (§III-B: list scheduling under a heuristic SP order, and
// the local search that starts from those orders).
//
// A search runs several candidates on one (graph, processors) pair: the
// four heuristic strategies, local search (which starts from all four
// heuristic orders) and partitioned-wfd (which schedules one of them
// under its partition). The context holds what they have in common:
//
//   - the graph and the processor count,
//   - one CompiledTaskGraph, shared by every candidate's Evaluator; its
//     compile-time acyclicity flag is the Evaluator's cycle check,
//   - one lazy slot per heuristic: the SP order, computed on the view's
//     int64 ticks and stored topological order (the Rational
//     schedule_priority when the view has no ticks or the graph is
//     cyclic), list-scheduled once by a single materialize pass into its
//     schedule and score.
//
// The built-in strategies also score their candidates on the view:
// finalize_result(ctx, result) (sched/strategy.hpp) counts violations on
// ticks, with the Rational walk as its fallback.
//
// Each slot is filled on first use under std::call_once, so a standalone
// call to one heuristic fills only its own slot and concurrent candidates
// never simulate the same order twice. A fill that throws (a cyclic
// graph, processors < 1) keeps its exception, and every use of the slot
// rethrows it.
//
// Determinism: every slot is a pure function of (graph, processors), so
// a candidate's result — and its evaluation counters — are the same
// whether it fills a slot or finds it filled, on any worker count.
// Thread safety: all members are const after construction or filled
// under call_once; safe to share between threads.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/evaluator.hpp"
#include "sched/priorities.hpp"

namespace fppn {
namespace sched {

/// One heuristic's SP order and its list schedule, from one materialize
/// pass; `score` is bit-identical to Evaluator::evaluate(order).
struct HeuristicRun {
  std::vector<JobId> order;
  StaticSchedule schedule;
  EvalScore score;
};

class SearchContext {
 public:
  /// Compiles `tg` (not owned; must outlive the context). Never throws
  /// beyond allocation failure: a cyclic graph or processors < 1 is
  /// rejected by the first Evaluator built on the context.
  SearchContext(const TaskGraph& tg, std::int64_t processors);

  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  [[nodiscard]] const TaskGraph& graph() const noexcept { return *tg_; }
  [[nodiscard]] std::int64_t processors() const noexcept { return processors_; }
  [[nodiscard]] const std::shared_ptr<const CompiledTaskGraph>& compiled() const noexcept {
    return compiled_;
  }

  /// The slot of `h`, filled on first use: schedule_priority on the
  /// shared view (on the graph when the view cannot serve it), then one
  /// Evaluator::materialize on the view. Throws like schedule_priority,
  /// then like the Evaluator constructor — on the first use and on every
  /// later one.
  [[nodiscard]] const HeuristicRun& heuristic(PriorityHeuristic h) const;

 private:
  static constexpr std::size_t kSlots = 4;  ///< one per PriorityHeuristic

  const TaskGraph* tg_;
  std::int64_t processors_;
  std::shared_ptr<const CompiledTaskGraph> compiled_;
  mutable std::array<std::once_flag, kSlots> filled_;
  mutable std::array<HeuristicRun, kSlots> runs_;
  mutable std::array<std::exception_ptr, kSlots> errors_;  ///< a fill's failure
};

}  // namespace sched
}  // namespace fppn
