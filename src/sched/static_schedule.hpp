// Static schedules (Def. 3.2) and their feasibility check.
//
// A static schedule maps every job J_i to a processor mu_i and a start
// time s_i (relative to the frame origin). It is feasible iff:
//   arrival:     s_i >= A_i
//   deadline:    e_i <= D_i           (e_i = s_i + C_i)
//   precedence:  (J_i, J_j) in E  =>  e_i <= s_j
//   mutex:       mu_i == mu_j  =>  e_i <= s_j or e_j <= s_i
//
// Determinism: StaticSchedule is a plain value type; every const query
// (feasibility, makespan, rendering) is a pure function of the placements
// and the task graph — exact rational comparisons, no iteration-order or
// platform dependence. Thread safety: const members are safe to call
// concurrently; place() requires external synchronization (the parallel
// search never shares a mutable schedule between workers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rt/ids.hpp"
#include "rt/time.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {

/// Placement of one job.
struct Placement {
  ProcessorId processor;
  Time start;
};

/// Why a schedule is infeasible.
enum class ViolationKind : std::uint8_t {
  kUnscheduled,   ///< job has no placement
  kArrival,       ///< starts before its arrival time
  kDeadline,      ///< completes after its deadline
  kPrecedence,    ///< predecessor finishes after successor starts
  kMutex,         ///< overlap on the same processor
};

[[nodiscard]] std::string to_string(ViolationKind k);

struct Violation {
  ViolationKind kind;
  JobId job;                      ///< offending job
  std::optional<JobId> other;     ///< partner for precedence/mutex
  // Facts behind the message, stored instead of an eagerly formatted
  // string (rational-to-string conversion is pure waste for callers that
  // only count violations): the offending time — the start for kArrival,
  // the end for kDeadline/kPrecedence — the crossed bound for
  // kPrecedence (the successor's start), and the processor for kMutex.
  Time when;
  Time bound;
  std::int64_t processor = -1;

  /// The human-readable explanation, built on demand ("ends 70 > D=60"
  /// style). Deterministic; never throws.
  [[nodiscard]] std::string detail(const TaskGraph& tg) const;
};

struct FeasibilityReport {
  std::vector<Violation> violations;

  [[nodiscard]] bool feasible() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string to_string(const TaskGraph& tg) const;
};

/// Per-kind violation tallies — check_feasibility's counts without its
/// report (see StaticSchedule::count_violations).
struct ViolationCounts {
  std::size_t unscheduled = 0;
  std::size_t arrival = 0;
  std::size_t deadline = 0;
  std::size_t precedence = 0;
  std::size_t mutex = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return unscheduled + arrival + deadline + precedence + mutex;
  }
  [[nodiscard]] bool feasible() const noexcept { return total() == 0; }
};

class CompiledTaskGraph;

/// A schedule's violation counts and makespan together — what
/// StaticSchedule::score_on_ticks returns.
struct ScheduleScore {
  ViolationCounts counts;
  Time makespan;
};

class StaticSchedule {
 public:
  StaticSchedule() = default;
  /// Empty schedule for `job_count` jobs. Throws std::invalid_argument
  /// when processors < 1.
  StaticSchedule(std::size_t job_count, std::int64_t processors);

  [[nodiscard]] std::int64_t processor_count() const noexcept { return processors_; }
  [[nodiscard]] std::size_t job_count() const noexcept { return placements_.size(); }

  /// Sets (or overwrites) a job's placement. Throws std::invalid_argument
  /// when the job or processor id is out of range.
  void place(JobId job, ProcessorId proc, Time start);

  /// False for out-of-range ids as well as unplaced jobs; never throws.
  [[nodiscard]] bool is_placed(JobId job) const;
  /// Throws std::logic_error unless is_placed(job) — check it first when
  /// handling partial schedules.
  [[nodiscard]] const Placement& placement(JobId job) const;
  [[nodiscard]] Time start(JobId job) const { return placement(job).start; }
  [[nodiscard]] Time end(JobId job, const TaskGraph& tg) const {
    return placement(job).start + tg.job(job).wcet;
  }

  /// Jobs per processor, sorted by (start time, job id) — the static
  /// order the online policy (§IV) executes. Deterministic total order;
  /// never throws.
  [[nodiscard]] std::vector<std::vector<JobId>> per_processor_order() const;

  /// Latest completion time over all *placed* jobs (Time() when none).
  [[nodiscard]] Time makespan(const TaskGraph& tg) const;

  /// Busy time per processor (sum of placed WCETs).
  [[nodiscard]] std::vector<Duration> busy_time(const TaskGraph& tg) const;

  /// Full Def. 3.2 feasibility check, including a kUnscheduled violation
  /// per unplaced job. The violation list order is deterministic
  /// (per-job checks in job order, then precedence in edge order, then
  /// mutex per processor); never throws.
  [[nodiscard]] FeasibilityReport check_feasibility(const TaskGraph& tg) const;

  /// Counts-only fast mode of check_feasibility: the identical per-kind
  /// violation tallies with no report, no Violation records and no
  /// per-processor vector-of-vectors — the mutex pass sorts one flat
  /// index array instead. The choice for callers that only need scores
  /// (finalize_result on a graph, the reference search oracle). Deterministic;
  /// never throws.
  [[nodiscard]] ViolationCounts count_violations(const TaskGraph& tg) const;

  /// makespan and count_violations of the graph `view` was compiled from,
  /// on the view's int64 ticks: each start converted exactly by
  /// ticks_from_time, every finish a checked add, precedence over the CSR
  /// successors and mutex in one flat (processor, start, job) sort. The
  /// identical counts and makespan, or nullopt when the view has no
  /// ticks, the schedule covers another job count, a start is off the
  /// tick grid or an add overflows — the caller then asks the TaskGraph
  /// overloads. Deterministic; never throws beyond allocation failure.
  [[nodiscard]] std::optional<ScheduleScore> score_on_ticks(
      const CompiledTaskGraph& view) const;

  /// ASCII Gantt chart (Fig. 4 style), `cols` characters wide.
  [[nodiscard]] std::string to_gantt(const TaskGraph& tg, std::size_t cols = 100) const;

 private:
  /// Single source of truth for Def. 3.2's rules: walks every violation
  /// in the documented deterministic order (per-job checks in job order,
  /// then precedence in edge order, then mutex per processor) and hands
  /// each fully-populated Violation to `on`. check_feasibility and
  /// count_violations are thin adapters over this walk, so the two can
  /// never disagree on what counts as a violation. Defined in the .cpp
  /// (both instantiations live there).
  template <class OnViolation>
  void walk_violations(const TaskGraph& tg, OnViolation&& on) const;

  std::vector<std::optional<Placement>> placements_;
  std::int64_t processors_ = 0;
};

}  // namespace fppn
