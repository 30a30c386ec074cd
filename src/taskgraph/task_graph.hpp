// The task graph TG(J, E) of Def. 3.1: a DAG of jobs with arrival times,
// absolute deadlines, WCETs and precedence edges.
//
// Jobs are stored in the total order <J produced by the hyperperiod
// simulation (derivation.hpp), so JobId order == <J order for derived
// graphs. Synthetic graphs (tests, heuristic benchmarks) can be assembled
// directly through add_job/add_edge.
//
// The precedence relation is stored once: per job, its predecessor and
// successor JobId lists, each in edge insertion order. Derivation builds
// the reduced graph in one pass, so the orders it leaves are those of the
// generating edge list (derivation.hpp). precedence() copies the relation
// into a Digraph for the cold callers (DOT export, tests, the reference
// derivation); no hot path calls it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "rt/ids.hpp"
#include "rt/time.hpp"

namespace fppn {

/// One job J_i = (p_i, k_i, A_i, D_i, C_i) (Def. 3.1). `is_server` marks
/// jobs that stand for sporadic invocations via the periodic-server
/// construction (§III-A); `subset` is the 1-based index of the server
/// subset (jobs arriving at the same user-period boundary), 0 otherwise.
struct Job {
  ProcessId process;        ///< process in the *original* network
  std::int64_t k = 1;       ///< invocation count within the frame (1-based)
  Time arrival;             ///< A_i
  Time deadline;            ///< D_i (absolute, possibly truncated to H)
  Duration wcet;            ///< C_i
  bool is_server = false;
  std::int64_t subset = 0;
  std::string name;         ///< "CoefB[1]" style display name
};

class TaskGraph {
 public:
  TaskGraph() = default;
  explicit TaskGraph(Duration hyperperiod) : hyperperiod_(hyperperiod) {}

  JobId add_job(Job job);
  /// Reserves room for `jobs` jobs (derivation knows the count up front).
  void reserve(std::size_t jobs);

  /// Adds a precedence edge; parallel edges are ignored. Throws on
  /// self-loops or out-of-range ids.
  bool add_edge(JobId from, JobId to);
  /// Adds a batch of edges that are new: pairwise distinct and none
  /// already in the graph (a repeat is not detected). Each is appended
  /// as add_edge would, in list order, but every adjacency list grows
  /// once, to its final size. Throws, adding none, on a self-loop or an
  /// out-of-range id.
  void add_new_edges(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);
  /// Removes an edge if present, keeping the order of the other edges.
  bool remove_edge(JobId from, JobId to);
  [[nodiscard]] bool has_edge(JobId from, JobId to) const;

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] Job& job(JobId id);
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }

  /// Pred(i) and Succ(i) of §III-B, in edge insertion order. Returned by
  /// reference — no per-call allocation (the schedule-evaluation hot path
  /// iterates these for every candidate). The reference is invalidated by
  /// any mutation of the graph.
  [[nodiscard]] const std::vector<JobId>& predecessors(JobId id) const;
  [[nodiscard]] const std::vector<JobId>& successors(JobId id) const;

  /// All edges as (from, to) pairs in (from, insertion) order — the order
  /// of Digraph::edges() on precedence().
  [[nodiscard]] std::vector<std::pair<JobId, JobId>> edges() const;

  /// Topological order of all jobs, smaller JobId first among ready jobs
  /// (topological_sort's order), or nullopt when the graph is cyclic.
  [[nodiscard]] std::optional<std::vector<JobId>> topological_order() const;

  /// The precedence relation as a Digraph, built on every call. Successor
  /// lists keep this graph's order; predecessor lists are in source order.
  [[nodiscard]] Digraph precedence() const;

  /// Frame period H; zero when not set (synthetic graphs).
  [[nodiscard]] const Duration& hyperperiod() const noexcept { return hyperperiod_; }
  void set_hyperperiod(Duration h) { hyperperiod_ = h; }

  [[nodiscard]] bool is_acyclic() const;

  /// Removes redundant precedence edges (derivation step 5). Returns the
  /// number removed. Requires acyclicity.
  std::size_t transitive_reduce();

  /// Find a job by display name, e.g. "FilterA[2]".
  [[nodiscard]] std::optional<JobId> find(const std::string& name) const;

  /// Jobs of one process, in k order.
  [[nodiscard]] std::vector<JobId> jobs_of(ProcessId p) const;

  /// Total WCET of all jobs.
  [[nodiscard]] Duration total_work() const;

  /// DOT rendering with "(A, D, C)" labels, Fig. 3 style.
  [[nodiscard]] std::string to_dot() const;

  /// Compact text table: one row per job with arrival/deadline/WCET and
  /// successor lists — the textual equivalent of Fig. 3.
  [[nodiscard]] std::string to_table() const;

 private:
  void check_job(JobId id) const;

  std::vector<Job> jobs_;
  std::vector<std::vector<JobId>> preds_;
  std::vector<std::vector<JobId>> succs_;
  std::size_t edge_count_ = 0;
  Duration hyperperiod_;
};

}  // namespace fppn
