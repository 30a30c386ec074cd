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
// wfd_assignment is the partitioning half; the scheduling half is the
// "partitioned-wfd" SchedulerStrategy registered in the strategy registry
// (sched/registry.hpp), which participates in parallel_search, the
// schedule cache and `fppn_tool --strategy`. It builds the
// partition-constrained sched::Evaluator on the search context's shared
// compiled view and schedules the SP order of the context's heuristic
// slot (sched/search_context.hpp), so a seed costs one wfd_assignment and
// one constrained simulation, never a compile or a heuristic order. The
// O(n²) rescan it reproduces bit for bit is the test oracle
// testing::partitioned_list_schedule (testing/list_scheduler.hpp).
//
// Determinism: wfd_assignment is a pure function of its arguments — the
// WFD bin choice is broken by index, never by iteration order or
// randomness. Thread safety: no shared state; safe to call concurrently.
#pragma once

#include <vector>

#include "sched/static_schedule.hpp"

namespace fppn {

/// The worst-fit-decreasing processor assignment: per-process WCET
/// demand, bins chosen lightest-first with index tie-breaks. Every process with at least one
/// job gets a processor, including one whose jobs all have zero WCET (it
/// sorts last and adds nothing to its bin). Pure function of its
/// arguments — in particular independent of any SP heuristic or seed,
/// which is what makes the assignment cacheable across seeds. Throws
/// std::invalid_argument when processors < 1 or a job's process id is
/// >= process_count.
[[nodiscard]] std::vector<ProcessorId> wfd_assignment(const TaskGraph& tg,
                                                      std::size_t process_count,
                                                      std::int64_t processors);

}  // namespace fppn
