#include "sched/evaluator.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace fppn {
namespace sched {

namespace {

/// T + W for both timebases: int64 + int64 ticks, Time + Duration.
inline std::int64_t add_wcet(std::int64_t t, std::int64_t w) { return t + w; }
inline Time add_wcet(const Time& t, const Duration& w) { return t + w; }

/// Default checkpoint stride: floor(sqrt(n)), at least 1 — O(√n)
/// checkpoints of O(n) state each, O(n^1.5) total snapshot memory.
std::size_t default_stride(std::size_t n) {
  std::size_t s = 1;
  while ((s + 1) * (s + 1) <= n) {
    ++s;
  }
  return s;
}

/// A confluence compare that got past the cheap O(1) checks but failed on
/// deep state this many times stops probing: the move genuinely changed
/// the schedule and the remaining tail is cheaper to simulate than to
/// keep comparing. Purely a cost bound — never affects the score.
constexpr int kMaxDeepCompareFailures = 64;

}  // namespace

template <class F>
decltype(auto) Evaluator::on_timebase(F&& f) {
  if (cg_->has_ticks()) {
    return f(tick_, cg_->arrival_ticks(), cg_->deadline_ticks(), cg_->wcet_ticks());
  }
  return f(time_, cg_->arrivals(), cg_->deadlines(), cg_->wcets());
}

Evaluator::Evaluator(const TaskGraph& tg, std::int64_t processors)
    : Evaluator(std::make_shared<const CompiledTaskGraph>(CompiledTaskGraph::compile(tg)),
                processors) {}

Evaluator::Evaluator(std::shared_ptr<const CompiledTaskGraph> compiled,
                     std::int64_t processors)
    : cg_(std::move(compiled)), processors_(processors) {
  validate();
  init_scratch();
}

Evaluator::Evaluator(const TaskGraph& tg, std::int64_t processors,
                     const std::vector<ProcessorId>& assignment)
    : Evaluator(tg, std::make_shared<const CompiledTaskGraph>(CompiledTaskGraph::compile(tg)),
                processors, assignment) {}

Evaluator::Evaluator(const TaskGraph& tg, std::shared_ptr<const CompiledTaskGraph> compiled,
                     std::int64_t processors, const std::vector<ProcessorId>& assignment)
    : cg_(std::move(compiled)), processors_(processors), partition_mode_(true) {
  validate();
  const std::size_t n = cg_->job_count();
  job_proc_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = cg_->process_ids()[i];
    if (p >= assignment.size() || !assignment[p].is_valid() ||
        static_cast<std::int64_t>(assignment[p].value()) >= processors) {
      throw std::invalid_argument("partitioned schedule: job '" + tg.job(JobId(i)).name +
                                  "' has no valid processor assignment");
    }
    job_proc_[i] = static_cast<std::uint32_t>(assignment[p].value());
  }
  init_scratch();
}

void Evaluator::validate() {
  if (processors_ < 1) {
    throw std::invalid_argument("evaluator: processors must be >= 1");
  }
  if (!cg_->is_acyclic()) {
    throw std::invalid_argument("evaluator: task graph is cyclic");
  }
}

void Evaluator::init_scratch() {
  const std::size_t n = cg_->job_count();
  const std::size_t m = static_cast<std::size_t>(processors_);
  rank_.resize(n);
  base_order_.resize(n);
  seen_.resize(n);
  remaining_.resize(n);
  started_.resize(n);
  placed_proc_.resize(n);
  ready_heap_.reserve(n);
  free_procs_.reserve(m);
  cmp_a_.reserve(m);
  cmp_b_.reserve(n);
  if (partition_mode_) {
    proc_ready_.resize(m);
    proc_free_flag_.resize(m);
  }
  on_timebase([&](auto& lane, const auto&, const auto&, const auto&) {
    lane.ready_at.resize(n);
    lane.start.resize(n);
    lane.busy.reserve(m);
    lane.pending.reserve(n);
    lane.cmp_pairs.reserve(n);
  });
  stride_ = default_stride(n);
  reserve_checkpoints();
}

void Evaluator::reserve_checkpoints() {
  if (partition_mode_) {
    return;  // checkpoints are a global-mode feature
  }
  const std::size_t n = cg_->job_count();
  on_timebase([&](auto& lane, const auto&, const auto&, const auto&) {
    auto& base = lane.base;
    base.ck.resize(n / std::max<std::size_t>(stride_, 1) + 1);
    base.finish_log.resize(n);
    base.chosen_rank.resize(n);
    base.second_rank.resize(n);
    base.entry_idx.resize(n);
    base.start_idx.resize(n);
  });
}

void Evaluator::set_checkpoint_stride(std::size_t stride) {
  stride_ = stride != 0 ? stride : default_stride(cg_->job_count());
  invalidate_baseline();
  reserve_checkpoints();
}

void Evaluator::invalidate_baseline() {
  tick_.base.valid = false;
  time_.base.valid = false;
}

void Evaluator::load_rank(const std::vector<JobId>& priority) {
  const std::size_t n = cg_->job_count();
  if (priority.size() != n) {
    throw std::invalid_argument("evaluator: SP order must cover every job");
  }
  std::fill(seen_.begin(), seen_.end(), std::uint8_t{0});
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t i = priority[r].value();
    if (i >= n || seen_[i] != 0) {
      throw std::invalid_argument("evaluator: SP order is not a permutation");
    }
    seen_[i] = 1;
    rank_[i] = static_cast<std::uint32_t>(r);
  }
}

void Evaluator::load_rank_for_move(const std::vector<JobId>& priority, std::size_t lo,
                                   std::size_t hi, MoveKind kind) {
  const std::size_t n = cg_->job_count();
  if (priority.size() != n) {
    throw std::invalid_argument("evaluator: SP order must cover every job");
  }
  if (n == 0) {
    return;
  }
  const auto mismatch = [] {
    throw std::invalid_argument(
        "evaluator: order is not the claimed perturbation of the baseline");
  };
  const auto copy_range = [&](std::size_t from, std::size_t to, std::size_t shift) {
    // priority[r] must equal the baseline at position r - shift.
    for (std::size_t r = from; r < to; ++r) {
      const std::size_t i = priority[r].value();
      if (i != base_order_[r - shift]) {
        mismatch();
      }
      rank_[i] = static_cast<std::uint32_t>(r);
    }
  };
  copy_range(0, lo, 0);
  copy_range(hi + 1, n, 0);
  if (priority[lo].value() != base_order_[hi]) {
    mismatch();
  }
  rank_[base_order_[hi]] = static_cast<std::uint32_t>(lo);
  if (kind == MoveKind::kSwap) {
    if (priority[hi].value() != base_order_[lo]) {
      mismatch();
    }
    rank_[base_order_[lo]] = static_cast<std::uint32_t>(hi);
    copy_range(lo + 1, hi, 0);
  } else {
    copy_range(lo + 1, hi + 1, 1);
  }
}


/// The event-driven list-scheduling simulation behind every pass. Decision
/// rule identical to the reference list_schedule: at every instant t,
/// repeatedly start the lowest-rank ready job on the smallest-index free
/// processor; when nothing can start, advance t to the next event (a
/// processor release, a pending readiness, or a source arrival). In
/// partition mode the rule is the same with each job's processor fixed:
/// one rank-keyed ready heap per processor, and the globally lowest-rank
/// job whose own processor is free starts first (the reference
/// partitioned_list_schedule). Both modes start from every processor
/// busy until t = 0.
///
/// Pass-specific work happens at `if constexpr` points only:
///   kMaterialize records each start time and processor;
///   kBaseline records the per-start decision logs and snapshots the
///     complete state every `stride` starts, right after the start's
///     successor propagation (every heap key is then strictly in the
///     future, so a later run can resume at the top of the loop);
///   kMove resumes from the latest checkpoint at or before the first pop
///     the move can influence and, once every moved job has started,
///     probes for confluence with the baseline at checkpoint boundaries.
/// Exact by construction: resumption replays the identical decision
/// sequence, and the splice is gated on a full state comparison.
///
/// Kept out of line: with the global and the partitioned tick loops both
/// inlined into one evaluate() body, the partitioned loop measured ~20%
/// slower on the FMS graph.
template <Evaluator::Pass P, bool Partitioned, class T, class W>
[[gnu::noinline]] EvalScore Evaluator::simulate(
    eval_detail::Lane<T>& lane, const std::vector<T>& arrival, const std::vector<T>& deadline,
    const std::vector<W>& wcet, std::size_t lo, std::size_t hi, MoveKind kind) {
  using BusyEntry = std::pair<T, std::uint32_t>;
  constexpr bool kTrackStarted = P == Pass::kBaseline || P == Pass::kMove;
  const std::size_t n = cg_->job_count();
  const std::size_t m = static_cast<std::size_t>(processors_);
  const auto& pred_offsets = cg_->pred_offsets();
  const auto& succ_offsets = cg_->succ_offsets();
  const auto& succ_ids = cg_->succ_ids();
  const auto& sources = cg_->sources_by_arrival();
  auto& base = lane.base;
  auto& ready_at = lane.ready_at;
  auto& busy = lane.busy;
  auto& pending = lane.pending;

  std::size_t violations = 0;
  T last_finish{};
  std::size_t started = 0;
  std::size_t src_ptr = 0;
  T t{};

  // kMove: the jobs whose relative priority the move changed — the two
  // swapped jobs, or for a rotation just the job pulled from hi to lo
  // (the shifted window keeps its internal and external relative order).
  std::uint32_t key_a = 0;  // new rank lo
  std::uint32_t key_b = 0;  // swap only: new rank hi
  bool two_keys = false;
  std::size_t resume = 0;
  if constexpr (P == Pass::kBaseline) {
    base.valid = false;
    base.stride = stride_;
    base.count = 0;
  } else if constexpr (P == Pass::kMove) {
    if (n == 0) {
      return EvalScore{0, time_of(T{})};
    }
    key_a = base_order_[hi];
    key_b = base_order_[lo];
    two_keys = kind == MoveKind::kSwap && hi != lo;
    // Exact first pop the move can influence. The promoted job (new rank
    // lo) steals a pop at the first baseline decision at or after its
    // ready-entry whose chosen rank is >= lo; every earlier pop picks a
    // job that still outranks it, and jobs whose ranks merely shifted
    // with a rotation keep their relative order, so those decisions
    // replay verbatim. For a swap the demoted job additionally loses its
    // own pop iff the runner-up there had rank < hi. Resume from the
    // latest checkpoint at or before that pop.
    std::size_t kstar = base.entry_idx[key_a];
    while (kstar < n && base.chosen_rank[kstar] < lo) {
      ++kstar;
    }
    if (two_keys) {
      const std::size_t ka = base.start_idx[key_b];
      if (ka < kstar && base.second_rank[ka] < hi) {
        kstar = ka;
      }
    }
    resume = std::min(base.count, kstar / base.stride);
  }

  if (resume > 0) {
    const auto& ck = base.ck[resume - 1];
    t = ck.t;
    started = ck.started;
    src_ptr = ck.src_ptr;
    violations = ck.violations;
    last_finish = ck.last_finish;
    std::copy(ck.started_flags.begin(), ck.started_flags.end(), started_.begin());
    std::copy(ck.ready_at.begin(), ck.ready_at.end(), ready_at.begin());
    std::copy(ck.remaining.begin(), ck.remaining.end(), remaining_.begin());
    busy.assign(ck.busy.begin(), ck.busy.end());
    pending.assign(ck.pending.begin(), ck.pending.end());
    free_procs_.assign(ck.free_procs.begin(), ck.free_procs.end());
    // Sorted-ascending snapshots are valid min-heap layouts as-is; only
    // the ready set needs re-keying under the perturbed ranks.
    ready_heap_.clear();
    for (const std::uint32_t job : ck.ready_jobs) {
      ready_heap_.push_back((static_cast<std::uint64_t>(rank_[job]) << 32) | job);
    }
    std::make_heap(ready_heap_.begin(), ready_heap_.end(), std::greater<std::uint64_t>());
    ++stats_.resumed_evals;
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      remaining_[i] = pred_offsets[i + 1] - pred_offsets[i];
      ready_at[i] = arrival[i];
    }
    if constexpr (Partitioned) {
      for (auto& heap : proc_ready_) {
        heap.clear();
      }
      std::fill(proc_free_flag_.begin(), proc_free_flag_.end(), std::uint8_t{0});
    } else {
      ready_heap_.clear();
      free_procs_.clear();
    }
    if constexpr (kTrackStarted) {
      std::fill(started_.begin(), started_.end(), std::uint8_t{0});
    }
    pending.clear();
    busy.clear();
    // Every processor becomes free at time zero, exactly like the
    // reference's proc_free initialization. Already a valid min-heap:
    // equal keys, ascending indices.
    for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(m); ++p) {
      busy.emplace_back(T{}, p);
    }
  }
  const std::size_t first_start = started;

  const auto push_ready = [&](std::uint32_t job) {
    if constexpr (P == Pass::kBaseline) {
      base.entry_idx[job] = static_cast<std::uint32_t>(started);
    }
    auto& heap = Partitioned ? proc_ready_[job_proc_[job]] : ready_heap_;
    heap.push_back((static_cast<std::uint64_t>(rank_[job]) << 32) | job);
    std::push_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
  };
  const auto release = [&](std::uint32_t proc) {
    if constexpr (Partitioned) {
      proc_free_flag_[proc] = 1;
    } else {
      free_procs_.push_back(proc);
      std::push_heap(free_procs_.begin(), free_procs_.end(), std::greater<std::uint32_t>());
    }
  };
  // The next start at t, if any: the lowest-rank ready job and its
  // processor (the smallest free index, or the job's own when free).
  const auto pick = [&](std::uint32_t& job, std::uint32_t& proc) -> bool {
    const auto pop_job = [&job](std::vector<std::uint64_t>& heap) {
      job = static_cast<std::uint32_t>(heap.front());
      std::pop_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
      heap.pop_back();
    };
    if constexpr (Partitioned) {
      // O(m) scan over the heap tops of the free processors.
      std::uint64_t best_key = ~std::uint64_t{0};
      std::size_t best = m;
      for (std::size_t p = 0; p < m; ++p) {
        if (proc_free_flag_[p] != 0 && !proc_ready_[p].empty() &&
            proc_ready_[p].front() < best_key) {
          best_key = proc_ready_[p].front();
          best = p;
        }
      }
      if (best == m) {
        return false;
      }
      pop_job(proc_ready_[best]);
      proc = static_cast<std::uint32_t>(best);
    } else {
      if (ready_heap_.empty() || free_procs_.empty()) {
        return false;
      }
      pop_job(ready_heap_);
      proc = free_procs_.front();
      std::pop_heap(free_procs_.begin(), free_procs_.end(), std::greater<std::uint32_t>());
      free_procs_.pop_back();
    }
    return true;
  };

  // kMove: exact state comparison against a baseline checkpoint, cheapest
  // checks first: O(1) scalars, then the event-heap fronts (snapshots are
  // sorted, so their fronts are the minima), then the O(n) state walk. A
  // false result only skips the splice — never changes a score.
  int deep_failures = 0;
  const auto confluent = [&](const eval_detail::EvalCheckpoint<T>& ck) -> bool {
    if (t != ck.t || src_ptr != ck.src_ptr || busy.size() != ck.busy.size() ||
        pending.size() != ck.pending.size() || ready_heap_.size() != ck.ready_jobs.size() ||
        free_procs_.size() != ck.free_procs.size()) {
      return false;
    }
    if (!busy.empty() && busy.front() != ck.busy.front()) {
      return false;
    }
    if (!pending.empty() && pending.front() != ck.pending.front()) {
      return false;
    }
    ++deep_failures;  // provisional; undone on success
    if (!std::equal(started_.begin(), started_.end(), ck.started_flags.begin())) {
      return false;
    }
    cmp_a_.assign(free_procs_.begin(), free_procs_.end());
    std::sort(cmp_a_.begin(), cmp_a_.end());
    if (cmp_a_ != ck.free_procs) {
      return false;
    }
    cmp_b_.clear();
    for (const std::uint64_t key : ready_heap_) {
      cmp_b_.push_back(static_cast<std::uint32_t>(key));
    }
    std::sort(cmp_b_.begin(), cmp_b_.end());
    if (cmp_b_ != ck.ready_jobs) {
      return false;
    }
    auto& pairs = lane.cmp_pairs;
    pairs.assign(busy.begin(), busy.end());
    std::sort(pairs.begin(), pairs.end());
    if (pairs != ck.busy) {
      return false;
    }
    pairs.assign(pending.begin(), pending.end());
    std::sort(pairs.begin(), pairs.end());
    if (pairs != ck.pending) {
      return false;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (started_[i] == 0 && ready_at[i] != ck.ready_at[i]) {
        return false;
      }
    }
    --deep_failures;
    return true;
  };

  while (started < n) {
    // Integrate every event at or before t.
    while (!busy.empty() && !(t < busy.front().first)) {
      release(busy.front().second);
      std::pop_heap(busy.begin(), busy.end(), std::greater<BusyEntry>());
      busy.pop_back();
    }
    while (!pending.empty() && !(t < pending.front().first)) {
      push_ready(pending.front().second);
      std::pop_heap(pending.begin(), pending.end(), std::greater<BusyEntry>());
      pending.pop_back();
    }
    while (src_ptr < sources.size() && !(t < arrival[sources[src_ptr]])) {
      push_ready(sources[src_ptr++]);
    }

    // Start decisions at t, repeated until nothing more can start.
    std::uint32_t job = 0;
    std::uint32_t proc = 0;
    while (pick(job, proc)) {
      const T finish = add_wcet(t, wcet[job]);
      if (deadline[job] < finish) {
        ++violations;
      }
      if (last_finish < finish) {
        last_finish = finish;
      }
      if constexpr (P == Pass::kMaterialize) {
        lane.start[job] = t;
        placed_proc_[job] = proc;
      }
      // A zero-WCET job completes at the instant it starts: its processor
      // is free again (in partition mode it was never marked busy) and
      // its successors become ready *within* this decision round, exactly
      // like the reference's rescan at the same t. Everything with a
      // strictly future key goes through the heaps.
      if (t < finish) {
        if constexpr (Partitioned) {
          proc_free_flag_[proc] = 0;
        }
        busy.emplace_back(finish, proc);
        std::push_heap(busy.begin(), busy.end(), std::greater<BusyEntry>());
      } else if constexpr (!Partitioned) {
        release(proc);
      }
      if constexpr (P == Pass::kBaseline) {
        // Decision log for the k-th pop: the started job's rank, the
        // next-best ready rank at that instant (heap front — nothing has
        // been pushed since the pop), and the job→pop-index inverse.
        base.finish_log[started] = finish;
        base.chosen_rank[started] = rank_[job];
        base.second_rank[started] =
            ready_heap_.empty() ? ~std::uint32_t{0}
                                : static_cast<std::uint32_t>(ready_heap_.front() >> 32);
        base.start_idx[job] = static_cast<std::uint32_t>(started);
      }
      if constexpr (kTrackStarted) {
        started_[job] = 1;
      }
      ++started;
      for (std::uint32_t e = succ_offsets[job]; e < succ_offsets[job + 1]; ++e) {
        const std::uint32_t s = succ_ids[e];
        if (ready_at[s] < finish) {
          ready_at[s] = finish;
        }
        if (--remaining_[s] == 0) {
          if (t < ready_at[s]) {
            pending.emplace_back(ready_at[s], s);
            std::push_heap(pending.begin(), pending.end(), std::greater<BusyEntry>());
          } else {
            push_ready(s);
          }
        }
      }
      if constexpr (P == Pass::kBaseline) {
        if (started < n && started % base.stride == 0 && base.count < base.ck.size()) {
          auto& ck = base.ck[base.count++];
          ck.started = started;
          ck.src_ptr = src_ptr;
          ck.violations = violations;
          ck.t = t;
          ck.last_finish = last_finish;
          ck.started_flags.assign(started_.begin(), started_.end());
          ck.ready_at.assign(ready_at.begin(), ready_at.end());
          ck.remaining.assign(remaining_.begin(), remaining_.end());
          ck.ready_jobs.clear();
          for (const std::uint64_t key : ready_heap_) {
            ck.ready_jobs.push_back(static_cast<std::uint32_t>(key));
          }
          // Sorted ascending is both the canonical form for the
          // confluence compare and a valid min-heap layout for restore.
          std::sort(ck.ready_jobs.begin(), ck.ready_jobs.end());
          ck.busy.assign(busy.begin(), busy.end());
          std::sort(ck.busy.begin(), ck.busy.end());
          ck.pending.assign(pending.begin(), pending.end());
          std::sort(ck.pending.begin(), ck.pending.end());
          ck.free_procs.assign(free_procs_.begin(), free_procs_.end());
          std::sort(ck.free_procs.begin(), ck.free_procs.end());
        }
      } else if constexpr (P == Pass::kMove) {
        // The candidate can only have re-joined the baseline once every
        // key job has started — from then on the unstarted jobs' relative
        // priorities match the baseline (for a rotation the shifted ranks
        // differ by one but order-isomorphically), so an exact state
        // match implies an identical tail. Confluence is absorbing, so
        // probing only at checkpoint boundaries loses nothing.
        if (started_[key_a] != 0 && (!two_keys || started_[key_b] != 0) && started < n &&
            started % base.stride == 0 && deep_failures < kMaxDeepCompareFailures) {
          const std::size_t idx = started / base.stride - 1;
          if (idx < base.count && base.ck[idx].started == started &&
              confluent(base.ck[idx])) {
            // The baseline's tail is this candidate's tail: splice the
            // memoized suffix aggregates.
            stats_.starts_simulated += started - first_start;
            ++stats_.spliced_evals;
            T mk = last_finish;
            if (mk < base.ck[idx].suffix_max_finish) {
              mk = base.ck[idx].suffix_max_finish;
            }
            return EvalScore{violations + base.ck[idx].suffix_violations, time_of(mk)};
          }
        }
      }
    }
    if (started == n) {
      break;
    }
    // Advance to the next event strictly after t.
    bool have_next = false;
    T next{};
    const auto consider = [&](const T& cand) {
      if (!have_next || cand < next) {
        next = cand;
        have_next = true;
      }
    };
    if (!busy.empty()) {
      consider(busy.front().first);
    }
    if (!pending.empty()) {
      consider(pending.front().first);
    }
    if (src_ptr < sources.size()) {
      consider(arrival[sources[src_ptr]]);
    }
    if (!have_next) {
      throw std::logic_error("evaluator: stalled with no future event");
    }
    t = next;
  }
  stats_.starts_simulated += started - first_start;
  if constexpr (P == Pass::kBaseline) {
    finalize_baseline(base, violations);
  }
  return EvalScore{violations, time_of(last_finish)};
}

template <class T>
void Evaluator::finalize_baseline(eval_detail::BaselineStore<T>& base,
                                  std::size_t violations) {
  const std::size_t n = cg_->job_count();
  // Suffix aggregates per checkpoint: violations after the checkpoint and
  // the max finish among jobs started after it (one backward pass over
  // the per-start finish log).
  std::size_t ci = base.count;
  T running{};
  for (std::size_t k = n; k-- > 0;) {
    while (ci > 0 && base.ck[ci - 1].started == k + 1) {
      --ci;
      base.ck[ci].suffix_max_finish = running;
      base.ck[ci].suffix_violations = violations - base.ck[ci].violations;
    }
    if (running < base.finish_log[k]) {
      running = base.finish_log[k];
    }
  }
  base.valid = true;
}

template <Evaluator::Pass P>
EvalScore Evaluator::run_pass(std::size_t lo, std::size_t hi, MoveKind kind) {
  return on_timebase([&](auto& lane, const auto& arrival, const auto& deadline,
                         const auto& wcet) {
    if constexpr (P == Pass::kScore || P == Pass::kMaterialize) {
      if (partition_mode_) {
        return this->template simulate<P, true>(lane, arrival, deadline, wcet, lo, hi, kind);
      }
    }
    return this->template simulate<P, false>(lane, arrival, deadline, wcet, lo, hi, kind);
  });
}

EvalScore Evaluator::evaluate(const std::vector<JobId>& priority) {
  load_rank(priority);
  ++stats_.full_evals;
  return run_pass<Pass::kScore>();
}

EvalScore Evaluator::evaluate_baseline(const std::vector<JobId>& priority) {
  if (partition_mode_) {
    throw std::logic_error("evaluator: incremental baseline requires global mode");
  }
  load_rank(priority);
  for (std::size_t r = 0; r < base_order_.size(); ++r) {
    base_order_[r] = static_cast<std::uint32_t>(priority[r].value());
  }
  ++stats_.full_evals;
  return run_pass<Pass::kBaseline>();
}

EvalScore Evaluator::evaluate_move(const std::vector<JobId>& priority, std::size_t lo,
                                   std::size_t hi, MoveKind kind) {
  if (partition_mode_) {
    throw std::logic_error("evaluator: incremental moves require global mode");
  }
  const std::size_t n = cg_->job_count();
  if (lo > hi || (n != 0 && hi >= n)) {
    throw std::invalid_argument("evaluator: move positions out of range");
  }
  if (!(cg_->has_ticks() ? tick_.base.valid : time_.base.valid)) {
    // No baseline to lean on — still exact, just a plain full run.
    return evaluate(priority);
  }
  load_rank_for_move(priority, lo, hi, kind);
  ++stats_.incremental_evals;
  return run_pass<Pass::kMove>(lo, hi, kind);
}

StaticSchedule Evaluator::materialize(const std::vector<JobId>& priority) {
  EvalScore score;
  return materialize(priority, score);
}

StaticSchedule Evaluator::materialize(const std::vector<JobId>& priority, EvalScore& score) {
  load_rank(priority);
  score = run_pass<Pass::kMaterialize>();
  const std::size_t n = cg_->job_count();
  StaticSchedule schedule(n, processors_);
  on_timebase([&](const auto& lane, const auto&, const auto&, const auto&) {
    for (std::size_t i = 0; i < n; ++i) {
      schedule.place(JobId(i), ProcessorId(placed_proc_[i]), time_of(lane.start[i]));
    }
  });
  return schedule;
}

}  // namespace sched
}  // namespace fppn
