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
// (sched/registry.hpp), which wraps PartitionedScheduler and thereby
// participates in parallel_search, the schedule cache and
// `fppn_tool --strategy`.
//
// Determinism: both functions are pure functions of their arguments — the
// WFD bin choice and all scheduling ties are broken by index, never by
// iteration order or randomness. Thread safety: no shared state; safe to
// call concurrently.
#pragma once

#include <vector>

#include "sched/evaluator.hpp"
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
/// lightest-first with index tie-breaks. Pure function of its arguments —
/// in particular independent of any SP heuristic or seed, which is what
/// makes the assignment cacheable across seeds. Throws
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

/// Reusable partitioned-scheduling scratch: computes the WFD assignment
/// and compiles the partition-constrained evaluator once, then schedules
/// any number of SP orders against them. partition_and_schedule re-derives
/// both on every call — a pure setup cost when only the heuristic varies
/// (exactly what "partitioned-wfd" does across parallel_search seeds).
/// An instance retains no reference to the TaskGraph after construction,
/// so it may outlive it (the strategy keeps one per thread, keyed by
/// graph fingerprint).
class PartitionedScheduler {
 public:
  /// Throws like partition_and_schedule (same conditions, same messages,
  /// plus the eager no-valid-assignment check of the partition evaluator).
  PartitionedScheduler(const TaskGraph& tg, std::size_t process_count,
                       std::int64_t processors);

  [[nodiscard]] const std::vector<ProcessorId>& assignment() const noexcept {
    return assignment_;
  }
  [[nodiscard]] std::int64_t processor_count() const noexcept { return processors_; }

  /// Schedule one SP order under the fixed assignment — bit-identical to
  /// the testing::partitioned_list_schedule oracle under assignment().
  [[nodiscard]] StaticSchedule schedule_order(const std::vector<JobId>& priority);

  /// Score one SP order without materializing.
  [[nodiscard]] sched::EvalScore evaluate_order(const std::vector<JobId>& priority);

 private:
  std::int64_t processors_ = 1;
  std::vector<ProcessorId> assignment_;
  sched::Evaluator kernel_;
};

}  // namespace fppn
