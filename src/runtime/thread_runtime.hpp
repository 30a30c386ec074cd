// Real-time deployment of the static-order policy on std::thread workers —
// the analogue of the paper's Linux multi-thread runtime (§V).
//
// One worker thread per processor walks its static-order job list; channel
// accesses are serialized through the shared ExecutionState (modeling the
// paper's runtime-served read/write synchronization requests). Model time
// is mapped to wall time through RunOptions::micros_per_model_ms, so a
// 10-second hyperperiod runs in tens of milliseconds.
//
// Sporadic membership comes from the caller's script, by the rule the vm
// uses: a server job is the t-th invocation in its subset window
// (tth_invocation_in), or 'false' when there is none. Delivery follows the
// wall clock: a worker sleeps until the wall time of that invocation, or
// of the subset boundary for a 'false' job, so no job is declared false
// before its boundary has passed. Both backends take the one RunOptions
// type (runtime/vm_runtime.hpp); this one ignores its overhead model.
//
// Wall-clock jitter means measured times are approximate; tests therefore
// assert *functional* properties exactly (deterministic histories,
// identical to the zero-delay reference) and timing properties with slack.
#pragma once

#include <map>

#include "runtime/vm_runtime.hpp"

namespace fppn {

/// Runs the schedule on real threads. Returns the same RunResult shape as
/// the VM (trace times are measured wall times converted back to model
/// milliseconds; deadline misses are measured, so they can include OS
/// scheduling noise). `opts.actual_time` is the busy span of each job
/// (default WCET); `opts.overhead` is ignored.
///
/// Determinism: output *histories* are deterministic — functionally equal
/// to the zero-delay reference on every run (runtime_parity_test) — and
/// so are the 'false' server jobs, which the vm's rule picks from
/// `sporadics`; trace timestamps and measured deadline misses are
/// wall-clock-dependent by nature. Thread safety: safe to call
/// concurrently (each call owns its workers and execution state), though
/// concurrent runs compete for cores and distort each other's measured
/// times. Throws std::invalid_argument when frames < 1 or the schedule
/// leaves a job unplaced.
[[nodiscard]] RunResult run_static_order_threads(
    const Network& net, const DerivedTaskGraph& derived, const StaticSchedule& schedule,
    const RunOptions& opts = {}, const InputScripts& inputs = {},
    const std::map<ProcessId, SporadicScript>& sporadics = {});

}  // namespace fppn
