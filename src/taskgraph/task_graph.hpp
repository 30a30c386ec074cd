// The task graph TG(J, E) of Def. 3.1: a DAG of jobs with arrival times,
// absolute deadlines, WCETs and precedence edges.
//
// Jobs are stored in the total order <J produced by the hyperperiod
// simulation (derivation.hpp), so JobId order == <J order for derived
// graphs. Synthetic graphs (tests, heuristic benchmarks) can be assembled
// directly through add_job/add_edge.
//
// The precedence relation is stored once, as CSR (compressed sparse rows)
// per direction: an offsets array of job_count() + 1 entries and one flat
// array of 32-bit job ids, job i's list at [offsets[i], offsets[i+1]).
// Each list is in edge insertion order. predecessors()/successors() are
// views into those arrays, and CompiledTaskGraph copies them as they are.
// Derivation builds both directions from its reduced edge list in one
// counting pass (add_new_edges), so the orders it leaves are those of the
// generating edge list (derivation.hpp). add_edge and remove_edge shift
// the arrays, O(jobs + edges) each: they serve synthetic builders and the
// reference derivation, not a hot path. precedence() copies the relation
// into a Digraph for the cold callers (DOT export, tests, the reference
// derivation); no hot path calls it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
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

/// A read-only view of one job's predecessor or successor list: contiguous
/// 32-bit ids in a TaskGraph's CSR arrays, read as JobId values. Valid
/// until the graph is next mutated.
class JobIdRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = JobId;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = JobId;

    iterator() = default;
    explicit iterator(const std::uint32_t* at) noexcept : at_(at) {}

    JobId operator*() const noexcept { return JobId(*at_); }
    iterator& operator++() noexcept {
      ++at_;
      return *this;
    }
    iterator operator++(int) noexcept { return iterator(at_++); }
    friend bool operator==(iterator a, iterator b) noexcept { return a.at_ == b.at_; }
    friend bool operator!=(iterator a, iterator b) noexcept { return a.at_ != b.at_; }

   private:
    const std::uint32_t* at_ = nullptr;
  };

  JobIdRange() = default;
  JobIdRange(const std::uint32_t* first, const std::uint32_t* last) noexcept
      : first_(first), last_(last) {}

  [[nodiscard]] iterator begin() const noexcept { return iterator(first_); }
  [[nodiscard]] iterator end() const noexcept { return iterator(last_); }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
  JobId operator[](std::size_t k) const noexcept { return JobId(first_[k]); }

 private:
  const std::uint32_t* first_ = nullptr;
  const std::uint32_t* last_ = nullptr;
};

namespace testing {
struct TaskGraphProbe;
}  // namespace testing

class TaskGraph {
 public:
  TaskGraph() = default;
  explicit TaskGraph(Duration hyperperiod) : hyperperiod_(hyperperiod) {}

  /// Appends a job with no edges. Throws on a negative WCET, a deadline
  /// before the arrival, or a job count past the 32-bit id range.
  JobId add_job(Job job);
  /// Reserves room for `jobs` jobs (derivation knows the count up front).
  void reserve(std::size_t jobs);

  /// Adds a precedence edge; parallel edges are ignored. Throws on
  /// self-loops or out-of-range ids. O(jobs + edges).
  bool add_edge(JobId from, JobId to);
  /// Adds a batch of edges that are new: pairwise distinct and none
  /// already in the graph (a repeat is not detected). Each is appended
  /// as add_edge would, in list order, in one counting pass over the
  /// batch: O(jobs + edges) for the whole batch. Throws, adding none, on
  /// a self-loop or an out-of-range id.
  void add_new_edges(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);
  /// Removes an edge if present, keeping the order of the other edges.
  /// O(jobs + edges).
  bool remove_edge(JobId from, JobId to);
  [[nodiscard]] bool has_edge(JobId from, JobId to) const;

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return succ_ids_.size(); }

  [[nodiscard]] const Job& job(JobId id) const;
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }

  /// Pred(i) and Succ(i) of §III-B, in edge insertion order: views into
  /// the CSR arrays, no per-call allocation. A view is invalidated by any
  /// mutation of the graph.
  [[nodiscard]] JobIdRange predecessors(JobId id) const;
  [[nodiscard]] JobIdRange successors(JobId id) const;

  /// The CSR arrays themselves: job i's predecessors are
  /// pred_ids()[pred_offsets()[i] .. pred_offsets()[i+1]), likewise for
  /// successors. The offsets hold job_count() + 1 entries once a job was
  /// added and are empty before.
  [[nodiscard]] const std::vector<std::uint32_t>& pred_offsets() const noexcept {
    return pred_offsets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& pred_ids() const noexcept {
    return pred_ids_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& succ_offsets() const noexcept {
    return succ_offsets_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& succ_ids() const noexcept {
    return succ_ids_;
  }

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

  /// Removes redundant precedence edges (derivation step 5) in one
  /// edge_fates pass, keeping the order of the others. Returns the number
  /// removed. Requires acyclicity.
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
  friend struct testing::TaskGraphProbe;

  void check_job(JobId id) const;

  std::vector<Job> jobs_;
  std::vector<std::uint32_t> pred_offsets_;
  std::vector<std::uint32_t> pred_ids_;
  std::vector<std::uint32_t> succ_offsets_;
  std::vector<std::uint32_t> succ_ids_;
  Duration hyperperiod_;
};

}  // namespace fppn
