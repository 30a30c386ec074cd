// FPPN -> task graph derivation (§III-A).
//
// For the schedulable subclass (every sporadic process p has a unique
// periodic user u(p) with T_u(p) <= T_p) the derivation is:
//  1. Build the imaginary PN' where each sporadic p becomes an m-periodic
//     "server" process p' with burst m_p' = m_p, period T_p' = T_u(p) and
//     priority edge p' -> u(p). (Footnote 3 fallback: when d_p <= T_u(p)
//     the server period is T_u/q for the smallest q making the corrected
//     deadline positive.) All other FP edges of p transfer to p'.
//  2. Simulate the job invocation order of PN' over one hyperperiod
//     [0, H) — the zero-delay order — yielding the job sequence J and the
//     total order <J.
//  3. Add edge (Ja, Jb) iff Ja <J Jb and (pa |><| pb or pa == pb), where
//     |><| is direct FP'-relatedness. (Implemented via a generating subset
//     with the same transitive closure; see the .cpp.)
//  4. Job parameters: periodic p: A = T_p*floor((k-1)/m_p), D = A + d_p;
//     server p': A = T_p'*floor((k-1)/m_p'), D = A + d_p - T_p'.
//  5. Truncate D to H (non-pipelined frames) and transitively reduce.
//
// The implementation is one pass. Step 2 sorts (instant, process) slots
// and orders each instant's processes by a min-id Kahn pass over the FP'
// subgraph the instant induces. Step 3 appends its generating edges, and
// then the buffered-channel edges, to one list reserved up front; the
// transitive reduction runs on that list (graph/algorithms.hpp,
// edge_fates), and the surviving edges, in list order, become the
// TaskGraph's CSR adjacency in one counting pass. Job parameters stay
// exact Rationals. testing/reference_derivation.hpp keeps the edge-by-edge
// derivation as the oracle this one must equal, adjacency order included.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "fppn/network.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {

/// The most jobs one derived frame may hold. Derivation counts them
/// (sum of burst·U·H/T' over PN') before it allocates anything per job, and
/// rejects a larger network with std::invalid_argument: the reduction's
/// reachability bitset takes jobs²/8 bytes, 128 MB at this bound, and a
/// 135-byte request could otherwise ask for ~125 GB. The largest graph in
/// this repository, the full-period FMS, has 2798 jobs.
constexpr std::size_t kMaxDerivedJobs = std::size_t{1} << 15;

/// Per-process WCET assignment (C_i for every job of the process).
using WcetMap = std::map<ProcessId, Duration>;

struct DerivationOptions {
  bool transitive_reduce = true;
  /// When false, deadlines are left untruncated (used by tests to check
  /// the correction d_p' = d_p - T_u(p) in isolation).
  bool truncate_deadlines = true;
  /// Unfolding factor U >= 1 (pipelined-scheduling extension; the paper's
  /// footnote 5 restricts itself to U = 1). The frame becomes U
  /// hyperperiods long: jobs of U consecutive hyperperiods are scheduled
  /// together and deadlines are truncated to U*H instead of H, so a
  /// process with d_p > T_p can legally overlap the next hyperperiod —
  /// the non-pipelined truncation would artificially tighten it.
  int unfolding = 1;
};

/// How a sporadic process was turned into a periodic server.
struct ServerInfo {
  ProcessId sporadic;          ///< p
  ProcessId user;              ///< u(p)
  int burst = 1;               ///< m_p' = m_p
  Duration server_period;      ///< T_p' (T_u(p) or the footnote-3 fraction)
  Duration corrected_deadline; ///< d_p - T_p' (> 0 by construction)
  /// True when p -> u(p) in the *original* FP: the runtime then maps real
  /// invocations from the right-closed window (a, b]; otherwise [a, b)
  /// (Fig. 2 boundary rule).
  bool priority_over_user = false;
};

struct DerivedTaskGraph {
  TaskGraph graph;
  std::map<ProcessId, ServerInfo> servers;  ///< keyed by the sporadic process
  Duration hyperperiod;
  std::size_t edges_before_reduction = 0;
  std::size_t edges_removed = 0;
};

/// Derives the task graph. Throws std::invalid_argument when the network
/// is outside the schedulable subclass, a WCET is missing/non-positive,
/// (footnote 3) no admissible server period exists, or the frame would
/// hold more than kMaxDerivedJobs jobs.
[[nodiscard]] DerivedTaskGraph derive_task_graph(const Network& net,
                                                 const WcetMap& wcet,
                                                 const DerivationOptions& opts = {});

/// Uniform-WCET convenience: every process gets the same C.
[[nodiscard]] DerivedTaskGraph derive_task_graph(const Network& net, Duration wcet,
                                                 const DerivationOptions& opts = {});

}  // namespace fppn
