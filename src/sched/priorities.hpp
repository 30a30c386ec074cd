// Schedule-priority (SP) heuristics for list scheduling (§III-B).
//
// SP is a *total order on jobs* — not to be confused with the functional
// priority FP that defines semantics. The paper points to EDF adjusted to
// use ALAP completion times, b-level ordering [Kwok & Ahmad] and the
// modified deadline-monotonic assignment [Forget et al.]; all are
// implemented here plus a plain arrival-order baseline for the ablation
// benchmark.
//
// Two implementations of each order. The one on a TaskGraph walks exact
// Rationals and is the oracle; it also serves graphs without an int64 tick
// timebase and cyclic graphs, whose messages it owns. The one on a
// CompiledTaskGraph computes the identical order from the view's ticks,
// its CSR successors and its stored topological order; the search context
// (sched/search_context.hpp) fills its slots with it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "taskgraph/compiled_graph.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {

enum class PriorityHeuristic : std::uint8_t {
  kAlapEdf,            ///< earliest ALAP completion D' first ("ALAP heuristic")
  kBLevel,             ///< longest remaining path (incl. own C) first
  kDeadlineMonotonic,  ///< smallest relative deadline D - A first
  kArrivalOrder,       ///< earliest arrival first (FIFO baseline)
};

/// Registry name of the heuristic ("alap-edf", ...); never throws.
[[nodiscard]] std::string to_string(PriorityHeuristic h);

/// All heuristics in a fixed, documented order (kAlapEdf first), for
/// sweep benchmarks and the seed -> heuristic mapping of partitioned-wfd.
/// The returned reference is to a function-local static: valid for the
/// process lifetime, safe to read concurrently.
[[nodiscard]] const std::vector<PriorityHeuristic>& all_heuristics();

/// Jobs sorted from highest to lowest schedule priority. Ties are broken
/// by (arrival, job id) so the order is always deterministic and total.
/// Thread safety: pure function, safe to call concurrently. Throws
/// std::invalid_argument for cyclic graphs under kAlapEdf/kBLevel (both
/// need longest-path values).
[[nodiscard]] std::vector<JobId> schedule_priority(const TaskGraph& tg,
                                                   PriorityHeuristic heuristic);

/// schedule_priority on the compiled view of the same graph: the
/// ALAP times and b-levels walk view.topological_order() in reverse, and
/// every sort compares int64 tick keys with the (arrival, job id)
/// tie-break. Returns the identical order, or nullopt when the view has no
/// ticks, is cyclic, or a key overflows int64 — the caller then asks the
/// TaskGraph overload, which also owns the cyclic-graph messages. Pure
/// function; never throws beyond allocation failure.
[[nodiscard]] std::optional<std::vector<JobId>> schedule_priority(
    const CompiledTaskGraph& view, PriorityHeuristic heuristic);

/// b-level of every job: longest WCET sum of any path starting at the job
/// (including its own WCET). Deterministic; throws std::invalid_argument
/// when the graph is cyclic.
[[nodiscard]] std::vector<Duration> b_levels(const TaskGraph& tg);

}  // namespace fppn
