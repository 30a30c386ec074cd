// Compiling a static schedule into a timed-automata network (§V: "the
// tools are based on automatic translation of the FPPN network and the
// schedule to a network of timed automata").
//
// For each processor the translation emits one scheduler automaton that
// walks the processor's static job order. Each job J contributes:
//   Wait_J --(g >= A_J  and  done_P = 1 for every predecessor P)-->
//   Exec_J [x <= C_J] --(x >= C_J; done_J := 1)--> next Wait
// where g is a never-reset clock (absolute frame time) and x is reset on
// execution start. The run of the resulting closed network reproduces
// the static-order policy for one schedule frame with WCET execution
// times: job start/end times equal the VM runtime's frame-0 times with a
// zero overhead model. Tests use this as an independent timing oracle.
//
// Scope: one frame, all jobs present (server jobs treated as invoked —
// i.e. the worst-case demand the schedule was sized for). Sporadic
// absence can be modeled by pre-setting the variable skip_<job> to 1:
//   Wait_J --(g >= A_J  and  done_P = 1 for every predecessor P;
//             done_J := 1)--> next Wait
// so the scheduler bypasses the job without executing it, but — like
// the 'false' server job of both runtimes — only after its
// predecessors are done, so a skip never lets a successor overtake them.
// Server jobs that do run are still gated on g >= A_J, not on their real
// invocation, so the TA may start one later than the vm does (§IV
// robustness).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sched/static_schedule.hpp"
#include "ta/ta.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn::ta {

struct TranslationResult {
  TaNetwork network;
  /// Labels used for job start/end events: "start <name>" / "end <name>".
  std::map<std::string, JobId> start_labels;
  std::map<std::string, JobId> end_labels;
};

/// Compiles one frame of `schedule` over `tg` into a TA network.
/// `skipped` jobs (false-marked servers) complete without executing, at
/// their arrival boundary or when their last predecessor is done,
/// whichever is later.
[[nodiscard]] TranslationResult translate_schedule(
    const TaskGraph& tg, const StaticSchedule& schedule,
    const std::vector<JobId>& skipped = {});

/// Runs the translated network over one hyperperiod and returns each
/// executed job's (start, end) as observed in the TA run.
struct TaJobTimes {
  std::map<JobId, Time> start;
  std::map<JobId, Time> end;
};

[[nodiscard]] TaJobTimes run_schedule_oracle(const TaskGraph& tg,
                                             const StaticSchedule& schedule,
                                             const std::vector<JobId>& skipped = {});

}  // namespace fppn::ta
