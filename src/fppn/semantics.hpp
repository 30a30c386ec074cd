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
//
// The interpreter orders each instant's multiset with one
// SimultaneousOrder: a Kahn pass over the FP subgraph the multiset
// induces, on bitsets and counters sized once per run. An instant costs
// one pass and allocates nothing; no order is cached between instants.
#pragma once

#include <cstdint>
#include <vector>

#include "fppn/event.hpp"
#include "fppn/exec_state.hpp"
#include "fppn/network.hpp"
#include "graph/digraph.hpp"

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
/// simultaneous group: FP-topological; among ready FP-unrelated processes
/// the smallest id first (the largest for kByReverseProcessId); a burst
/// of one process kept adjacent. The same order topological_sort_subset
/// gives the group's distinct processes under that preference, each
/// repeated by its multiplicity. One Kahn pass over the subgraph of `fp`
/// the group induces, on bitsets and counters sized once for `fp`: after
/// the first groups have grown the output, ordering a group allocates
/// nothing. Holds a pointer to `fp`, which must outlive it; not
/// thread-safe (one per run).
class SimultaneousOrder {
 public:
  explicit SimultaneousOrder(const Digraph& fp,
                             SimultaneityTieBreak tie_break = SimultaneityTieBreak::kByProcessId);

  /// Adds one invocation of `p` to the pending group. Throws
  /// std::invalid_argument when `p` is not a node of `fp`.
  void add(ProcessId p);

  /// The pending group's jobs in order; the group is empty afterwards.
  /// The view holds until the next add(). Throws std::invalid_argument
  /// when the group induces an FP cycle (impossible for a valid FPPN: FP
  /// is a DAG); the group is empty then too.
  [[nodiscard]] const std::vector<ProcessId>& take();

 private:
  /// The member of `ready_` the tie-break picks, std::size_t(-1) when none.
  [[nodiscard]] std::size_t pick_ready() const;
  /// Empties the group: clears the counters and both bitsets.
  void clear_group();

  const Digraph* fp_;
  bool largest_first_;
  std::vector<std::uint32_t> count_;     ///< invocations of each process in the group
  std::vector<std::uint32_t> pending_;   ///< unordered FP predecessors inside the group
  std::vector<std::uint64_t> member_;    ///< bitset: the group's distinct processes
  std::vector<std::uint64_t> ready_;     ///< bitset: members whose predecessors are ordered
  std::size_t distinct_ = 0;             ///< set bits of member_
  std::vector<ProcessId> order_;
};

}  // namespace fppn
