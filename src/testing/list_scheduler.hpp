// The O(n²) rescan list schedulers of §III-B, kept as test oracles.
//
// "For a given SP, list scheduling consists of a simple simulation of the
// fixed-priority policy using the updated definition of ready jobs": a job
// is ready at time t when it has arrived (A_i <= t) and all its
// predecessors have completed. At every decision instant the highest-SP
// ready job is started on a free processor. These implementations rescan
// every job per decision and per idle step, exactly as written.
//
// Production never calls them: every strategy schedules through the
// evaluation kernel (sched/evaluator.hpp), whose determinism contract is
// bit-identity with these rescans. The differential suites
// (tests/evaluator_test.cpp, tests/partitioned_test.cpp), the reference
// search (testing/reference_search.hpp) and the kernel benches compare
// the kernel against them.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/priorities.hpp"
#include "sched/static_schedule.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {
namespace testing {

/// Schedules `tg` on `processors` identical processors with the explicit
/// SP total order `priority` (highest first; must contain every job
/// exactly once). Always produces a complete schedule; feasibility (the
/// deadline constraint) must be checked afterwards.
///
/// Deterministic: a pure function of (tg, priority, processors) — ties at
/// a decision instant go to the higher-SP job, free processors are taken
/// in index order. Thread safety: no shared state; safe to call
/// concurrently. Throws std::invalid_argument when `priority` is not a
/// permutation of all jobs, `tg` is cyclic, or processors < 1.
[[nodiscard]] StaticSchedule list_schedule(const TaskGraph& tg,
                                           const std::vector<JobId>& priority,
                                           std::int64_t processors);

/// Convenience: computes the SP order from a heuristic first. Same
/// determinism/thread-safety/throw behavior as the explicit-order
/// overload.
[[nodiscard]] StaticSchedule list_schedule(const TaskGraph& tg,
                                           PriorityHeuristic heuristic,
                                           std::int64_t processors);

/// Partition-constrained list scheduling: each job runs only on
/// `assignment[job.process]`, and at every instant the highest-SP ready
/// job whose own processor is free starts. Throws like list_schedule,
/// and std::invalid_argument when a job's process has no (in-range)
/// assignment.
[[nodiscard]] StaticSchedule partitioned_list_schedule(
    const TaskGraph& tg, const std::vector<ProcessorId>& assignment,
    const std::vector<JobId>& priority, std::int64_t processors);

}  // namespace testing
}  // namespace fppn
