// Partitioned scheduling: every process is pinned to one processor and
// all its jobs execute there — the deployment style of the paper's
// runtime ("multiple process automata can be mapped to the same thread
// according to static mapping mu_i", §V). Global list scheduling may
// migrate jobs of a process between processors; partitioning trades that
// freedom for per-thread locality.
//
// The partitioner is utilization-based worst-fit-decreasing over the
// per-process demand sum(C_i)/H, followed by partition-constrained list
// scheduling (the ready rule of §III-B, with the processor fixed per job).
//
// These are the low-level entry points; the engine path is the
// "partitioned-wfd" SchedulerStrategy registered in the strategy registry
// (sched/registry.hpp), which participates in parallel_search, the
// schedule cache and `fppn_tool --strategy`. It builds the
// partition-constrained sched::Evaluator on the search context's shared
// compiled view and schedules the SP order of the context's heuristic
// slot (sched/search_context.hpp), so a seed costs one wfd_assignment and
// one constrained simulation, never a compile or a heuristic order.
//
// Determinism: both functions are pure functions of their arguments — the
// WFD bin choice and all scheduling ties are broken by index, never by
// iteration order or randomness. Thread safety: no shared state; safe to
// call concurrently.
#pragma once

#include <vector>

#include "sched/priorities.hpp"
#include "sched/static_schedule.hpp"

namespace fppn {

struct PartitionedResult {
  /// processor of each process (indexed by ProcessId value); invalid for
  /// processes without jobs.
  std::vector<ProcessorId> assignment;
  StaticSchedule schedule;
  bool feasible = false;
};

/// The worst-fit-decreasing processor assignment alone (the partitioning
/// half of partition_and_schedule): per-process WCET demand, bins chosen
/// lightest-first with index tie-breaks. Every process with at least one
/// job gets a processor, including one whose jobs all have zero WCET (it
/// sorts last and adds nothing to its bin). Pure function of its
/// arguments — in particular independent of any SP heuristic or seed,
/// which is what makes the assignment cacheable across seeds. Throws
/// std::invalid_argument when processors < 1 or a job's process id is
/// >= process_count.
[[nodiscard]] std::vector<ProcessorId> wfd_assignment(const TaskGraph& tg,
                                                      std::size_t process_count,
                                                      std::int64_t processors);

/// Utilization-based worst-fit-decreasing partitioning + constrained list
/// scheduling.
/// `process_count` sizes the assignment table (processes are identified
/// by the jobs' ProcessId values, which must be < process_count).
/// Throws std::invalid_argument when processors < 1 or a job's process id
/// is >= process_count.
/// Schedules through the evaluator's partition-constrained mode
/// (per-processor ready heaps, O((n+E) log n)), bit-identical to the
/// test oracle testing::partitioned_list_schedule (an O(n²) rescan,
/// testing/list_scheduler.hpp) under the same assignment.
[[nodiscard]] PartitionedResult partition_and_schedule(
    const TaskGraph& tg, std::size_t process_count, std::int64_t processors,
    PriorityHeuristic heuristic = PriorityHeuristic::kAlapEdf);

}  // namespace fppn
