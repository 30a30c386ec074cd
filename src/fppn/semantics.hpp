// Zero-delay semantics of an FPPN (§II-B).
//
// Given the invocation sequence (t_1, P_1), (t_2, P_2), ... the trace is
//     Trace(PN) = w(t_1) . alpha_1 . w(t_2) . alpha_2 ...
// where alpha_i concatenates the job execution runs of the multiset P_i in
// an order in which p1 -> p2 (functional priority) implies p1's jobs run
// before p2's. Jobs take zero time; this is the reference semantics that
// the real-time runtimes must be functionally equivalent to.
//
// For processes *not* related by FP the order is semantically irrelevant
// (they share no channel — validated at build time); we still fix a
// deterministic tie-break so traces are reproducible, and expose the
// tie-break as a parameter so property tests can verify that the observable
// histories do not depend on it.
//
// run_zero_delay records the Act* trace. A run that is only compared with
// a real execution needs the histories alone: run_zero_delay_histories is
// the same interpreter handing ExecutionState the null sink, so it builds
// no Action (and copies no channel Value into one).
#pragma once

#include <cstdint>
#include <functional>

#include "fppn/event.hpp"
#include "fppn/exec_state.hpp"
#include "fppn/network.hpp"

namespace fppn {

/// Tie-break between FP-unrelated processes invoked at the same instant.
enum class SimultaneityTieBreak : std::uint8_t {
  kByProcessId,         ///< smaller process id first (default, reproducible)
  kByReverseProcessId,  ///< larger first (used to *test* order-independence)
};

struct ZeroDelayResult {
  ActionTrace trace;
  ExecutionHistories histories;
  std::size_t jobs_executed = 0;
};

/// Runs the zero-delay semantics for `plan` with external `inputs`.
/// Throws std::invalid_argument if a simultaneous invocation group cannot
/// be ordered (impossible for a valid FPPN: FP is a DAG).
[[nodiscard]] ZeroDelayResult run_zero_delay(
    const Network& net, const InvocationPlan& plan, const InputScripts& inputs = {},
    SimultaneityTieBreak tie_break = SimultaneityTieBreak::kByProcessId);

/// The same run without the trace: equal histories and jobs_executed,
/// result.trace left empty. Same exceptions as run_zero_delay.
[[nodiscard]] ZeroDelayResult run_zero_delay_histories(const Network& net,
                                                       const InvocationPlan& plan,
                                                       const InputScripts& inputs = {});

/// The job execution order the zero-delay semantics uses for one
/// simultaneous group: FP-topological, bursts of the same process kept
/// adjacent in invocation order. Exposed for task-graph derivation
/// (§III-A step 2 simulates exactly this order).
[[nodiscard]] std::vector<ProcessId> order_simultaneous(
    const Network& net, const std::vector<ProcessId>& invoked_multiset,
    SimultaneityTieBreak tie_break = SimultaneityTieBreak::kByProcessId);

}  // namespace fppn
