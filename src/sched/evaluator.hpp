// sched::Evaluator — the allocation-free O((n+E) log n) schedule-evaluation
// kernel behind every production list schedule (§III-B), and the local
// search's inner loop.
//
// The naive path evaluates a candidate SP order by running the rescan
// list scheduler (testing/list_scheduler.hpp, now a test oracle: O(n²)
// ready/next-event scans, a freshly allocated StaticSchedule) and
// scoring it through check_feasibility (violation records with formatted
// detail strings) — thousands of times per search. The Evaluator replaces
// that with an event-driven simulation over a CompiledTaskGraph flat view
// (taskgraph/compiled_graph.hpp):
//
//   - a priority-keyed two-level bitset of ready jobs (two
//     count-trailing-zeros per pop) and a min-heap of free processor
//     indices replace the O(n) highest-priority-ready scan,
//   - a (free-time, processor) min-heap plus a pending-ready heap replace
//     the O(n) next-event scan,
//   - on the int64 tick timebase every comparison is integer; when ticks
//     would overflow the kernel falls back to exact Rational arithmetic,
//   - evaluate() computes (deadline violations, makespan) during the
//     simulation — no StaticSchedule, no FeasibilityReport, no strings —
//     and materialize() rebuilds the full schedule only for incumbents,
//   - every buffer is owned by the Evaluator and reused across calls, so
//     the steady-state inner loop performs no heap allocation.
//
// Incremental evaluation (the local-search move loop):
//
//   evaluate_baseline() runs the full simulation and logs, per pop k, the
//   started job and its instant (pop_job, pop_t), plus suffix aggregates
//   over pops >= k (violations, max finish). Every ~√n starts — O(√n)
//   times; tests set other strides through testing::EvaluatorProbe — it
//   copies the raw simulation state into a preallocated checkpoint;
//   checkpoints serve resumption only.
//   evaluate_move(order, lo, hi, kind) then scores a swap/rotate
//   perturbation of the baseline order by
//
//     - patching the moved jobs' priority keys only: the baseline keys
//       position r as 2r+1, a rotation keys the pulled job 2·lo (just
//       ahead of position lo) and a swap exchanges two keys,
//     - resuming from the latest checkpoint at or before the exact first
//       pop the move can influence, computed from the pop logs: the
//       promoted job steals its first baseline pop at or after its
//       ready-entry whose chosen key is not below its new one, and a
//       swap's demoted job loses its own pop iff the runner-up there
//       outranked its new key. Every earlier decision replays verbatim,
//     - splicing the baseline's suffix the moment the move rejoins it.
//       After each start the move keeps, in O(1), `diff`: the size of the
//       symmetric difference between its started set and the baseline's
//       first k pops, and `horizon`: the latest finish, in either run, of
//       any job it started at another instant than the baseline. Once the
//       moved jobs have started, diff == 0, t >= horizon and
//       t == pop_t[k-1], both runs stand at the same instant of the same
//       decision round with the same started set. Every job whose finish
//       differs has finished in both, so the busy processors carry equal
//       finish times, the same jobs are ready or pending at the same
//       times (a readiness time differs only where both are <= t, which
//       no later decision can tell apart), and the unstarted jobs have
//       the baseline's relative keys. The rest of the run is the
//       baseline's up to processor names, which no score reads. The
//       instant test is needed: a zero-WCET job can restore the started
//       set later than the baseline had it, while the baseline had a
//       processor to spend in between. Periodic workloads drain at frame
//       boundaries, so most moves rejoin within a frame.
//
//   Both shortcuts are exact, never heuristic, so evaluate_move returns
//   the bit-identical score of a from-scratch evaluate() of the same
//   order — regression-proved move by move in tests/evaluator_test.cpp.
//
// Partition-constrained mode (the "partitioned-wfd" strategy, the §V
// static mapping mu_i): the three-argument constructor pins every job to
// one processor (its process's assigned bin). The simulation then keeps
// one rank-keyed ready heap per processor and starts, at every instant,
// the globally lowest-rank job whose own processor is free — bit-identical
// to the reference testing::partitioned_list_schedule rescan. The
// incremental API is a global-mode feature; partition mode supports
// evaluate()/materialize().
//
// One simulation loop serves every entry point. evaluate, materialize,
// evaluate_baseline and evaluate_move each run their own instantiation
// of one templated simulation (pass x partition mode x timebase). The
// passes differ only at compile-time branches (recording placements,
// pop logs and checkpoints, resuming and splicing), and
// partition mode only in how a ready job is queued, how a processor is
// taken and released, and how the next start is picked. No mode flag is
// tested inside the loop.
//
// Determinism contract: for any valid SP order, evaluate()/materialize()
// produce the bit-identical score and placements the reference
// testing::list_schedule + check_feasibility pipeline produces — same
// decision instants, same rank tie-breaks, same smallest-index processor
// choice — on either timebase (regression-proved by the randomized
// differential suite in tests/evaluator_test.cpp). Search winners therefore equal
// those of the reference oracle (testing/reference_search.hpp), cold and
// warm, on any worker count.
//
// Thread safety: an Evaluator is mutable scratch — one per search worker,
// never shared concurrently. Construction is read-only on the task graph.
// The compiled view is immutable and may be shared by any number of
// evaluators on any threads (sched/search_context.hpp shares one per
// search).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sched/static_schedule.hpp"
#include "taskgraph/compiled_graph.hpp"
#include "taskgraph/task_graph.hpp"

namespace fppn {
namespace testing {
struct EvaluatorProbe;
}  // namespace testing

namespace sched {

/// The local-search objective of one candidate evaluation, lexicographic:
/// fewer deadline violations first, then smaller makespan.
struct EvalScore {
  std::size_t deadline_violations = 0;
  Time makespan;

  [[nodiscard]] bool better_than(const EvalScore& other) const {
    if (deadline_violations != other.deadline_violations) {
      return deadline_violations < other.deadline_violations;
    }
    return makespan < other.makespan;
  }
};

/// How a move perturbed the baseline order: kSwap exchanged the jobs at
/// positions lo and hi; kRotate moved the job at position hi to position
/// lo, shifting [lo, hi) one position later (std::rotate(b+lo, b+hi,
/// b+hi+1)). evaluate_move verifies the claim against the stored baseline
/// order and uses it to bound which jobs' relative priorities changed:
/// the two swapped jobs, or just the pulled job — a rotation preserves
/// the shifted window's internal and external relative order.
enum class MoveKind : std::uint8_t { kSwap, kRotate };

/// Counters for the incremental layer; informational only (never part of
/// any determinism contract).
struct EvalStats {
  std::uint64_t full_evals = 0;         ///< from-scratch runs (incl. baselines)
  std::uint64_t incremental_evals = 0;  ///< evaluate_move calls
  std::uint64_t resumed_evals = 0;      ///< ... that restarted from a checkpoint
  std::uint64_t spliced_evals = 0;      ///< ... that early-exited into the suffix
  std::uint64_t starts_simulated = 0;   ///< job starts actually replayed
};

namespace eval_detail {

/// The global mode's ready set over priority keys: a two-level bitset.
/// Bit k of `words` is set while the job with key k is ready, bit w of
/// `summary` while words[w] != 0. Insert and erase are O(1); the smallest
/// key is a summary scan from `first` (a lower bound on the first
/// non-zero summary word) and two count-trailing-zeros.
struct ReadySet {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> summary;
  std::size_t size = 0;
  std::size_t first = 0;

  static std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << (i & 63U); }
  void clear(std::size_t keys) {
    words.assign((keys + 63) / 64, 0);
    summary.assign((words.size() + 63) / 64, 0);
    size = first = 0;
  }
  [[nodiscard]] bool contains(std::uint32_t key) const { return (words[key >> 6] & bit(key)) != 0; }
  void insert(std::uint32_t key) {
    words[key >> 6] |= bit(key);
    summary[key >> 12] |= bit(key >> 6);
    first = std::min<std::size_t>(first, key >> 12);
    ++size;
  }
  void erase(std::uint32_t key) {
    if ((words[key >> 6] &= ~bit(key)) == 0) {
      summary[key >> 12] &= ~bit(key >> 6);
    }
    --size;
  }
  /// The smallest key; the set must not be empty.
  [[nodiscard]] std::uint32_t front() {
    while (summary[first] == 0) {
      ++first;
    }
    const std::size_t w = (first << 6) | static_cast<unsigned>(__builtin_ctzll(summary[first]));
    return static_cast<std::uint32_t>((w << 6) | static_cast<unsigned>(__builtin_ctzll(words[w])));
  }
};

/// One baseline snapshot: the raw simulation state immediately after the
/// `started`-th job start (successor propagation included). At that
/// instant every event key is strictly greater than `t`, so resuming at
/// the top of the event loop is exact, and the heaps restore as they were
/// copied.
template <class T>
struct EvalCheckpoint {
  std::size_t started = 0;
  std::size_t src_ptr = 0;
  std::size_t violations = 0;
  T t{};
  T last_finish{};
  std::vector<T> ready_at;
  std::vector<std::uint32_t> remaining;
  ReadySet ready;  ///< under the baseline keys
  std::vector<std::pair<T, std::uint32_t>> busy;
  std::vector<std::pair<T, std::uint32_t>> pending;
  std::vector<std::uint32_t> free_procs;
};

/// The baseline of one timebase: checkpoints for resumption and the
/// per-pop logs behind the resume bound and the splice test. Preallocated
/// and reused across baselines — allocation-free in steady state.
template <class T>
struct BaselineStore {
  bool valid = false;
  std::size_t stride = 0;
  std::size_t count = 0;
  std::vector<EvalCheckpoint<T>> ck;
  std::vector<std::uint32_t> pop_job;     ///< job started at pop k
  std::vector<T> pop_t;                   ///< instant of pop k
  std::vector<std::uint32_t> second_key;  ///< next-best ready key at pop k
  std::vector<std::uint32_t> entry_idx;   ///< pop count when job became ready
  std::vector<std::uint32_t> start_idx;   ///< pop index that started job
  std::vector<std::size_t> suffix_viol;   ///< violations among pops >= k (n+1)
  std::vector<T> suffix_max;              ///< max finish among pops >= k (n+1)
};

/// The simulation scratch of one timebase (int64 ticks or exact Time):
/// readiness times, the (time, index) event heaps, materialized starts
/// and the baseline store. Only the lane of the graph's active timebase
/// is sized.
template <class T>
struct Lane {
  std::vector<T> ready_at;
  std::vector<std::pair<T, std::uint32_t>> busy;     ///< (free time, processor)
  std::vector<std::pair<T, std::uint32_t>> pending;  ///< (ready time, job)
  std::vector<T> start;
  BaselineStore<T> base;
};

}  // namespace eval_detail

class Evaluator {
 public:
  /// Compiles `tg` into a view of its own and sizes all scratch. Throws
  /// std::invalid_argument when processors < 1 or the graph is cyclic
  /// (the same conditions the reference list_schedule rejects, checked
  /// once here instead of per evaluation).
  Evaluator(const TaskGraph& tg, std::int64_t processors);

  /// Shares an already compiled view (a SearchContext's): only the
  /// scratch is sized. Throws like the constructor above; acyclicity
  /// comes from the view's compile-time flag.
  Evaluator(std::shared_ptr<const CompiledTaskGraph> compiled, std::int64_t processors);

  /// Partition-constrained evaluator: job i is pinned to
  /// `assignment[tg.job(i).process]`. Throws std::invalid_argument under
  /// the same conditions as the reference partitioned_list_schedule (a
  /// job whose process has no in-range assignment), with the same message
  /// — checked eagerly here instead of at schedule time.
  Evaluator(const TaskGraph& tg, std::int64_t processors,
            const std::vector<ProcessorId>& assignment);

  /// Partition-constrained evaluator on a shared view, which must be
  /// CompiledTaskGraph::compile(tg); `tg` only names the job in the
  /// assignment error. Throws like the constructor above.
  Evaluator(const TaskGraph& tg, std::shared_ptr<const CompiledTaskGraph> compiled,
            std::int64_t processors, const std::vector<ProcessorId>& assignment);

  /// Scores one SP order without building a schedule. Allocation-free
  /// after the first call. Throws std::invalid_argument when `priority`
  /// is not a permutation of all jobs.
  [[nodiscard]] EvalScore evaluate(const std::vector<JobId>& priority);

  /// Runs the same simulation and materializes the full StaticSchedule —
  /// bit-identical to the testing::list_schedule oracle on the same order
  /// and processor count (or, in partition mode, to
  /// testing::partitioned_list_schedule). For incumbents and the
  /// heuristic strategies; this path allocates the schedule it returns.
  [[nodiscard]] StaticSchedule materialize(const std::vector<JobId>& priority);

  /// materialize() that also returns the run's score through `score` —
  /// bit-identical to evaluate(priority), from the same single pass.
  [[nodiscard]] StaticSchedule materialize(const std::vector<JobId>& priority,
                                           EvalScore& score);

  /// Full evaluation that also (re)builds the checkpoints and per-pop
  /// logs, making `priority` the incremental baseline. Call on the
  /// incumbent order at the start of a climb and after every accepted
  /// move. Score is bit-identical to evaluate(). Global mode only (throws
  /// std::logic_error in partition mode).
  [[nodiscard]] EvalScore evaluate_baseline(const std::vector<JobId>& priority);

  /// Scores a perturbation of the current baseline order. `priority` must
  /// be exactly the claimed perturbation of the baseline (see MoveKind);
  /// this is verified and a mismatch throws std::invalid_argument.
  /// Resumes from the latest compatible checkpoint and splices the
  /// baseline's suffix once the run rejoins it; the result is
  /// bit-identical to evaluate(priority). Falls back to a full run (still
  /// exact) when no baseline is set. Does not modify the baseline.
  [[nodiscard]] EvalScore evaluate_move(const std::vector<JobId>& priority,
                                        std::size_t lo, std::size_t hi,
                                        MoveKind kind);

  [[nodiscard]] const EvalStats& stats() const noexcept { return stats_; }

  /// True when the int64 tick fast path is active; false means the exact
  /// Rational fallback (results are bit-identical either way).
  [[nodiscard]] bool uses_ticks() const noexcept { return cg_->has_ticks(); }

  /// True for the partition-constrained constructor.
  [[nodiscard]] bool partition_mode() const noexcept { return partition_mode_; }

  [[nodiscard]] const CompiledTaskGraph& compiled() const noexcept { return *cg_; }
  [[nodiscard]] std::int64_t processor_count() const noexcept { return processors_; }

 private:
  friend struct testing::EvaluatorProbe;

  /// What one simulation pass does besides scoring: kMaterialize records
  /// starts and processors, kBaseline records the per-pop logs and
  /// checkpoints, kMove resumes from a checkpoint and tests for the
  /// splice after every start. Each pass is its own instantiation of
  /// simulate().
  enum class Pass : std::uint8_t { kScore, kMaterialize, kBaseline, kMove };

  void validate();
  void init_scratch();
  void reserve_checkpoints();
  /// Validates that `priority` is a permutation of all jobs and keys
  /// position r as 2r+1 in `key` (job -> key) and `job_at` (key -> job).
  void load_keys(const std::vector<JobId>& priority, std::vector<std::uint32_t>& key,
                 std::vector<std::uint32_t>& job_at);

  /// Calls f(lane, arrival, deadline, wcet) on the active timebase.
  template <class F>
  decltype(auto) on_timebase(F&& f);

  /// Runs pass P on the active timebase, in partition mode when the
  /// evaluator is partition-constrained (kScore and kMaterialize only).
  template <Pass P>
  EvalScore run_pass(std::size_t lo = 0, std::size_t hi = 0,
                     MoveKind kind = MoveKind::kSwap);

  template <Pass P, bool Partitioned, class T, class W>
  EvalScore simulate(eval_detail::Lane<T>& lane, const std::vector<T>& arrival,
                     const std::vector<T>& deadline, const std::vector<W>& wcet,
                     std::size_t lo, std::size_t hi, MoveKind kind);

  [[nodiscard]] Time time_of(std::int64_t ticks) const { return cg_->time_from_ticks(ticks); }
  [[nodiscard]] static const Time& time_of(const Time& t) { return t; }

  std::shared_ptr<const CompiledTaskGraph> cg_;
  std::int64_t processors_ = 1;
  bool partition_mode_ = false;
  std::size_t stride_ = 1;
  EvalStats stats_;

  // Scratch, reused across evaluations. A job's priority key is 2r+1 for
  // SP position r; evaluate() and materialize() key through key_/job_at_,
  // the baseline and its moves through base_key_/base_job_at_, which a
  // move patches for the moved jobs and restores.
  std::vector<std::uint32_t> key_;          ///< job -> key
  std::vector<std::uint32_t> job_at_;       ///< key -> job
  std::vector<std::uint32_t> base_key_;
  std::vector<std::uint32_t> base_job_at_;
  std::vector<JobId> base_order_;           ///< baseline order (move verification)
  std::vector<std::uint8_t> seen_;          ///< permutation validation
  std::vector<std::uint32_t> remaining_;    ///< unfinished predecessor counts
  eval_detail::ReadySet ready_;             ///< global-mode ready jobs by key
  std::vector<std::uint32_t> free_procs_;   ///< free processor-index min-heap
  std::vector<std::uint32_t> placed_proc_;
  std::vector<std::uint32_t> move_stamp_;   ///< == move_epoch_: started by this move
  std::uint32_t move_epoch_ = 0;
  // Partition-mode scratch.
  std::vector<std::uint32_t> job_proc_;       ///< job -> pinned processor
  std::vector<std::vector<std::uint64_t>> proc_ready_;  ///< per-proc ready heaps
  std::vector<std::uint8_t> proc_free_flag_;
  eval_detail::Lane<std::int64_t> tick_;
  eval_detail::Lane<Time> time_;
};

}  // namespace sched
}  // namespace fppn
