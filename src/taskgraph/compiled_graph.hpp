// CompiledTaskGraph — a flat, cache-friendly view of a TaskGraph for the
// schedule-evaluation hot path (sched/evaluator.hpp).
//
// Three pieces:
//
//   CSR adjacency   predecessor/successor ids packed into two flat arrays
//                   with offset tables (copies of the task graph's own CSR
//                   arrays), so the inner scheduling loop walks edges with
//                   zero pointer chasing and zero allocation.
//
//   topological     the order of the compile-time Kahn pass that decides
//   order           acyclicity, kept for the longest-path analyses behind
//                   the SP orders (ALAP times, b-levels), which walk it in
//                   reverse instead of sorting the graph again.
//
//   tick timebase   all arrivals/deadlines/WCETs are exact rationals with
//                   a common denominator L = lcm of every denominator in
//                   the graph. When L and every scaled value — including
//                   the largest time the simulation can ever reach,
//                   max arrival + total WCET — fit in int64, the view
//                   carries integer "ticks" (value * L) and the evaluator,
//                   the SP orders and the scoring of a search's built-in
//                   candidates run on plain int64 comparisons. Otherwise
//                   has_ticks is false and each falls back to exact
//                   Rational arithmetic. Either way results are exact and
//                   bit-identical: ticks are a lossless rescaling, never a
//                   rounding.
//
// Determinism: compile() is a pure function of the task graph; the view is
// immutable afterwards and safe to share between threads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rt/time.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {

class CompiledTaskGraph {
 public:
  /// Builds the flat view. Accepts any graph, cyclic ones included, and
  /// records acyclicity once (is_acyclic) for the evaluator to check;
  /// never throws beyond allocation failure.
  static CompiledTaskGraph compile(const TaskGraph& tg);

  [[nodiscard]] std::size_t job_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return pred_ids_.size(); }

  /// True when the precedence edges form no cycle — the same answer as
  /// TaskGraph::is_acyclic, computed at compile time over the CSR view.
  [[nodiscard]] bool is_acyclic() const noexcept { return topo_order_.size() == n_; }

  /// Every job once, each after all of its predecessors: the order of the
  /// compile-time Kahn pass that decides is_acyclic (not the min-id order
  /// of TaskGraph::topological_order). Empty when the graph is cyclic.
  /// The longest-path analyses of the tick SP orders walk it in reverse
  /// (sched/priorities.hpp).
  [[nodiscard]] const std::vector<std::uint32_t>& topological_order() const noexcept {
    return topo_order_;
  }

  /// True when the int64 tick timebase is usable (no overflow anywhere,
  /// including the worst-case simulated makespan).
  [[nodiscard]] bool has_ticks() const noexcept { return has_ticks_; }
  /// Ticks per millisecond (the common denominator L); 1 when the graph
  /// uses integral milliseconds only. Meaningful only when has_ticks().
  [[nodiscard]] std::int64_t ticks_per_ms() const noexcept { return ticks_per_ms_; }

  // Tick arrays (size n; valid only when has_ticks()).
  [[nodiscard]] const std::vector<std::int64_t>& arrival_ticks() const noexcept {
    return arrival_tick_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& deadline_ticks() const noexcept {
    return deadline_tick_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& wcet_ticks() const noexcept {
    return wcet_tick_;
  }

  // Exact rational arrays (size n; always valid — the fallback timebase).
  [[nodiscard]] const std::vector<Time>& arrivals() const noexcept { return arrival_; }
  [[nodiscard]] const std::vector<Time>& deadlines() const noexcept { return deadline_; }
  [[nodiscard]] const std::vector<Duration>& wcets() const noexcept { return wcet_; }

  // CSR adjacency. predecessors of job i are pred_ids()[pred_offsets()[i]
  // .. pred_offsets()[i+1]); same shape for successors.
  [[nodiscard]] const std::vector<std::uint32_t>& pred_offsets() const noexcept {
    return pred_offsets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& pred_ids() const noexcept {
    return pred_ids_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& succ_offsets() const noexcept {
    return succ_offsets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& succ_ids() const noexcept {
    return succ_ids_;
  }

  /// Jobs with no predecessors, sorted by (arrival, job id) — the arrival
  /// event stream of the evaluator (every other job becomes ready through
  /// a predecessor completion).
  [[nodiscard]] const std::vector<std::uint32_t>& sources_by_arrival() const noexcept {
    return sources_by_arrival_;
  }

  /// process_ids()[i] = ProcessId value of job i (SIZE_MAX when the job
  /// carries no process id). Feeds the evaluator's partition-constrained
  /// mode, which pins each job to its process's processor.
  [[nodiscard]] const std::vector<std::size_t>& process_ids() const noexcept {
    return process_id_;
  }

  /// Converts a tick count back to the exact Time it encodes. Meaningful
  /// only when has_ticks(); the result is bit-identical to the rational
  /// arithmetic the reference scheduler performs.
  [[nodiscard]] Time time_from_ticks(std::int64_t ticks) const;

  /// Inverse of time_from_ticks: the exact tick count of `t`, or nullopt
  /// when `t` is not representable on this tick timebase (denominator not
  /// a divisor of ticks_per_ms, or int64 overflow). Lossless, never a
  /// rounding — the evaluator uses it to translate score cutoffs computed
  /// on the Time side into tick comparisons.
  [[nodiscard]] std::optional<std::int64_t> ticks_from_time(const Time& t) const;

 private:
  std::size_t n_ = 0;
  bool has_ticks_ = false;
  std::int64_t ticks_per_ms_ = 1;
  std::vector<std::int64_t> arrival_tick_, deadline_tick_, wcet_tick_;
  std::vector<Time> arrival_, deadline_;
  std::vector<Duration> wcet_;
  std::vector<std::uint32_t> pred_offsets_, pred_ids_, succ_offsets_, succ_ids_;
  std::vector<std::uint32_t> sources_by_arrival_;
  std::vector<std::uint32_t> topo_order_;  ///< Kahn order; empty when cyclic
  std::vector<std::size_t> process_id_;
};

}  // namespace fppn
