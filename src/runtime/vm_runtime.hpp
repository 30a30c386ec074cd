// The static-order online scheduling policy (§IV) on a simulated-time
// virtual multiprocessor.
//
// The policy repeats the schedule frame with period H. Each processor
// independently walks its jobs in static start-time order; every round is:
//   1. Synchronize invocation — wait for the event invocation of the
//      current job (periodic: at frame_base + A_i; sporadic server job:
//      at the t-th real invocation in its window, possibly earlier than
//      A_i, or mark the job 'false' at A_i when it did not occur),
//   2. Synchronize precedence — wait for all task-graph predecessors,
//   3. Execute the job, unless marked 'false'.
// Start times s_i from the static schedule are used only for the ORDER;
// actual starts synchronize on invocations and predecessors, which makes
// the policy robust to execution times differing from the WCETs (the
// motivation given in §IV for not using s_i directly).
//
// The virtual platform replaces the paper's Kalray MPPA: per-job actual
// execution times are injectable (default: the WCETs), and the frame
// overhead model of §V-A (41/20 ms arrival management) gates job starts.
// Every result is exact and fully deterministic.
//
// The timebase is an int64 tick grid with an exact fallback. The frame
// loop is written once, as a template over its time representation
// (VmFrameLoop, vm_runtime.cpp). The grid is the lcm of the denominators
// of the deployment's times: job arrivals, deadlines and WCETs, the
// hyperperiod and the server periods. The loop runs on ticks when the
// overhead model and the sporadic scripts lie on that grid and every
// frame base plus offset fits in int64; execution times, including the
// actual_time answers, are checked as they are added, and one that is
// off the grid or overflows hands the run to the exact Time loop, which
// replays the answers already given. Ticks are a lossless rescaling, so
// both loops give bit-identical traces, misses, span_end and histories.
//
// A run builds its frame-independent plan once, from arrays: per job its
// offsets, server data and previous job on the processor and of the
// process, and one walk order for every frame. That order takes the
// smallest ready job id first over precedence plus the processor chains,
// so it is the unique order topological_sort gives on those edges. The
// walk reaches a sporadic process's server jobs by nondecreasing window
// start, so each process's script has one InvocationCursor for the run.
// Each job's name is stored once in the run's trace, and its events
// share it. The bodies run after the walk, sorted into causal order on
// the loop's own keys.
//
// RunOptions, RunResult and the 'false' rule for server jobs (the t-th
// invocation of the caller's script in the subset window, or none) are
// shared with the threads backend (runtime/thread_runtime.hpp).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "fppn/exec_state.hpp"
#include "fppn/semantics.hpp"
#include "runtime/sporadic_window.hpp"
#include "sched/static_schedule.hpp"
#include "sim/overhead.hpp"
#include "sim/timed_trace.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace testing {
struct VmTicksProbe;
}  // namespace testing

/// Actual execution time of a job instance; frame is 0-based. Returning a
/// duration larger than the WCET models WCET under-estimation (the
/// measurement-based scenario of §IV); must be non-negative.
using ActualTimeFn = std::function<Duration(JobId, std::int64_t frame)>;

struct DeadlineMiss {
  std::int64_t frame = 0;
  JobId job;
  Time completion;
  Time deadline;
};

/// The run options of both backends: run_static_order_vm,
/// run_static_order_threads and runtime::Runtime all take this one type.
/// A backend ignores the field it does not model: the overhead model on
/// "threads", the wall-clock scale on "vm".
struct RunOptions {
  std::int64_t frames = 1;
  OverheadModel overhead;             ///< frame overhead model ("vm" only); default none
  ActualTimeFn actual_time;           ///< per-job actual times; default (null) WCET
  double micros_per_model_ms = 50.0;  ///< wall scale ("threads" only): 1 model ms = 50 us
};

/// The vm's former name for RunOptions. Kept only because the benchmark
/// harness (perfbench/src/workloads.cpp) still names it; it goes with that
/// harness's next change.
using VmRunOptions = RunOptions;

struct RunResult {
  TimedTrace trace;
  ExecutionHistories histories;
  std::vector<DeadlineMiss> misses;
  std::size_t jobs_executed = 0;
  std::size_t false_skips = 0;
  Time span_end;  ///< == trace.span_end(), kept as a running max during the run

  [[nodiscard]] bool met_all_deadlines() const { return misses.empty(); }
};

/// Executes `frames` repetitions of the schedule frame.
///
/// `sporadics` gives the real invocation time stamps of each sporadic
/// process over the whole run (global time, not per frame); a server job
/// is the t-th invocation of its window in that script, or 'false'
/// (tth_invocation_in, found by an InvocationCursor).
/// run_static_order_threads decides membership by the same rule.
/// `inputs` are the external-input sample arrays.
///
/// Deterministic: a pure function of its arguments — simulated time is
/// exact (int64 ticks or rational), so traces, histories and deadline
/// misses are bit-identical across runs and platforms. `opts.actual_time`
/// is called once per executed job, in walk order. Thread safety: no shared
/// state; safe to call concurrently. Throws std::invalid_argument when
/// the schedule does not place every job, its per-processor order
/// conflicts with precedence, frames < 1, or an injected actual execution
/// time is negative. `inputs` is read in place for the whole call.
[[nodiscard]] RunResult run_static_order_vm(
    const Network& net, const DerivedTaskGraph& derived, const StaticSchedule& schedule,
    const RunOptions& opts = {}, const InputScripts& inputs = {},
    const std::map<ProcessId, SporadicScript>& sporadics = {});

/// The frame loop behind run_static_order_vm, reached only through it:
/// run_static_order_vm always tries ticks first; the tests compare the
/// tick loop with the exact one through testing::VmTicksProbe.
class VmFrameLoop {
  friend RunResult run_static_order_vm(const Network& net, const DerivedTaskGraph& derived,
                                       const StaticSchedule& schedule,
                                       const RunOptions& opts, const InputScripts& inputs,
                                       const std::map<ProcessId, SporadicScript>& sporadics);
  friend struct testing::VmTicksProbe;

  /// The run on int64 ticks when `try_ticks` and the run fits a grid,
  /// else on exact Time. `on_ticks`, when not null, receives which loop
  /// produced the result.
  static RunResult run(const Network& net, const DerivedTaskGraph& derived,
                       const StaticSchedule& schedule, const RunOptions& opts,
                       const InputScripts& inputs,
                       const std::map<ProcessId, SporadicScript>& sporadics, bool try_ticks,
                       bool* on_ticks);
};

/// The zero-delay reference for the same run: periodic invocations over
/// [0, frames*H) plus the sporadic scripts, executed with the zero-delay
/// semantics. By Prop. 4.1 + Prop. 2.1 the VM histories of a run that
/// meets every deadline are functionally equal to this (the property
/// tests verify it). Across frames the vm keeps only same-process order,
/// so after a deadline miss the histories may differ (ROADMAP.md, open
/// item 1).
/// Histories only: it records no Act* trace (result.trace stays empty);
/// run_zero_delay on InvocationPlan::build(net, frames*H, sporadics) is
/// the traced run with equal histories and jobs_executed.
/// Deterministic and safe to call concurrently; exceptions from the
/// semantics layer (ill-formed networks) propagate unchanged.
[[nodiscard]] ZeroDelayResult zero_delay_reference(
    const Network& net, const Duration& hyperperiod, std::int64_t frames,
    const InputScripts& inputs = {},
    const std::map<ProcessId, SporadicScript>& sporadics = {});

}  // namespace fppn
