#include "sched/evaluator.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <type_traits>

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

/// The baseline key of SP position r. Keys are odd so a rotation can
/// key its pulled job 2·lo, between positions lo-1 and lo.
constexpr std::uint32_t key_of(std::size_t r) { return static_cast<std::uint32_t>(2 * r + 1); }

/// Whether two job ranges hold the same jobs, as one memory compare.
bool same_jobs(const JobId* a, const JobId* b, std::size_t count) {
  static_assert(std::has_unique_object_representations_v<JobId>);
  return count == 0 || std::memcmp(a, b, count * sizeof(JobId)) == 0;
}

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
  key_.resize(n);
  job_at_.resize(2 * n);
  seen_.resize(n);
  remaining_.resize(n);
  placed_proc_.resize(n);
  free_procs_.reserve(m);
  if (partition_mode_) {
    proc_ready_.resize(m);
    proc_free_flag_.resize(m);
  }
  on_timebase([&](auto& lane, const auto&, const auto&, const auto&) {
    lane.ready_at.resize(n);
    lane.start.resize(n);
    lane.busy.reserve(m);
    lane.pending.reserve(n);
  });
  stride_ = default_stride(n);
  reserve_checkpoints();
}

void Evaluator::reserve_checkpoints() {
  if (partition_mode_) {
    return;  // the incremental API is a global-mode feature
  }
  const std::size_t n = cg_->job_count();
  base_key_.resize(n);
  base_job_at_.resize(2 * n);
  base_order_.resize(n);
  move_stamp_.resize(n);
  on_timebase([&](auto& lane, const auto&, const auto&, const auto&) {
    auto& base = lane.base;
    base.ck.resize(n / std::max<std::size_t>(stride_, 1) + 1);
    base.pop_job.resize(n);
    base.pop_t.resize(n);
    base.second_key.resize(n);
    base.entry_idx.resize(n);
    base.start_idx.resize(n);
    base.suffix_viol.resize(n + 1);
    base.suffix_max.resize(n + 1);
  });
}

void Evaluator::load_keys(const std::vector<JobId>& priority, std::vector<std::uint32_t>& key,
                          std::vector<std::uint32_t>& job_at) {
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
    key[i] = key_of(r);
    job_at[key_of(r)] = static_cast<std::uint32_t>(i);
  }
}

/// The event-driven list-scheduling simulation behind every pass. Decision
/// rule identical to the reference list_schedule: at every instant t,
/// repeatedly start the lowest-key ready job on the smallest-index free
/// processor; when nothing can start, advance t to the next event (a
/// processor release, a pending readiness, or a source arrival). In
/// partition mode the rule is the same with each job's processor fixed:
/// one key-ordered ready heap per processor, and the globally lowest-key
/// job whose own processor is free starts first (the reference
/// partitioned_list_schedule). Both modes start from every processor
/// busy until t = 0.
///
/// Pass-specific work happens at `if constexpr` points only:
///   kMaterialize records each start time and processor;
///   kBaseline logs each pop, copies the state every `stride` starts
///     right after the start's successor propagation (every event key is
///     then strictly in the future, so a later run can resume at the top
///     of the loop) and fills the suffix aggregates at the end;
///   kMove resumes from a checkpoint and splices the baseline's suffix
///     once the run has rejoined it (see the header).
///
/// Kept out of line: with the global and the partitioned tick loops both
/// inlined into one evaluate() body, the partitioned loop measured ~20%
/// slower on the FMS graph.
template <Evaluator::Pass P, bool Partitioned, class T, class W>
[[gnu::noinline]] EvalScore Evaluator::simulate(
    eval_detail::Lane<T>& lane, const std::vector<T>& arrival, const std::vector<T>& deadline,
    const std::vector<W>& wcet, std::size_t lo, std::size_t hi, MoveKind kind) {
  using BusyEntry = std::pair<T, std::uint32_t>;
  constexpr bool kOnBaseline = P == Pass::kBaseline || P == Pass::kMove;
  const std::size_t n = cg_->job_count();
  const std::size_t m = static_cast<std::size_t>(processors_);
  const auto& pred_offsets = cg_->pred_offsets();
  const auto& succ_offsets = cg_->succ_offsets();
  const auto& succ_ids = cg_->succ_ids();
  const auto& sources = cg_->sources_by_arrival();
  const std::vector<std::uint32_t>& key = kOnBaseline ? base_key_ : key_;
  const std::vector<std::uint32_t>& job_at = kOnBaseline ? base_job_at_ : job_at_;
  auto& base = lane.base;
  auto& ready_at = lane.ready_at;
  auto& busy = lane.busy;
  auto& pending = lane.pending;

  std::size_t violations = 0;
  T last_finish{};
  std::size_t started = 0;
  std::size_t src_ptr = 0;
  T t{};

  // kMove: the jobs whose relative priority the move changed, with their
  // keys already patched — the two swapped jobs, or for a rotation just
  // the job pulled from hi to lo (the shifted window keeps its order).
  std::uint32_t job_a = 0;  // promoted: new position lo
  std::uint32_t job_b = 0;  // swap only: demoted to position hi
  bool two_jobs = false;
  std::ptrdiff_t diff = 0;  // |started set ^ baseline's first `started` pops|
  T horizon{};
  std::size_t resume = 0;
  if constexpr (P == Pass::kBaseline) {
    base.valid = false;
    base.stride = stride_;
    base.count = 0;
  } else if constexpr (P == Pass::kMove) {
    job_a = static_cast<std::uint32_t>(base_order_[hi].value());
    job_b = static_cast<std::uint32_t>(base_order_[lo].value());
    two_jobs = kind == MoveKind::kSwap && hi != lo;
    if (++move_epoch_ == 0) {
      std::fill(move_stamp_.begin(), move_stamp_.end(), 0U);
      move_epoch_ = 1;
    }
    // Exact first pop the move can influence (see the header), scanned
    // under the patched keys: an unmoved job keys below key_of(lo) iff
    // below 2·lo, a moved job never does, so the scan stops at the
    // promoted job's own pop at the latest.
    std::size_t kstar = base.entry_idx[job_a];
    while (kstar < n && key[base.pop_job[kstar]] < 2 * lo) {
      ++kstar;
    }
    if (two_jobs) {
      const std::size_t kb = base.start_idx[job_b];
      if (kb < kstar && base.second_key[kb] < key_of(hi)) {
        kstar = kb;
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
    std::copy(ck.ready_at.begin(), ck.ready_at.end(), ready_at.begin());
    std::copy(ck.remaining.begin(), ck.remaining.end(), remaining_.begin());
    busy = ck.busy;
    pending = ck.pending;
    free_procs_ = ck.free_procs;
    ready_ = ck.ready;
    // The snapshot holds a ready moved job under its baseline key; two
    // ready swapped jobs just trade keys.
    const bool a_ready = ready_.contains(key_of(hi));
    if (two_jobs ? a_ready != ready_.contains(key_of(lo)) : a_ready) {
      ready_.erase(a_ready ? key_of(hi) : key_of(lo));
      ready_.insert(a_ready ? key[job_a] : key[job_b]);
    }
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
      ready_.clear(2 * n);
      free_procs_.clear();
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
  std::size_t unstarted_moved = (P == Pass::kMove && base.start_idx[job_a] >= started ? 1 : 0) +
                                (two_jobs && base.start_idx[job_b] >= started ? 1 : 0);

  const auto push_ready = [&](std::uint32_t job) {
    if constexpr (P == Pass::kBaseline) {
      base.entry_idx[job] = static_cast<std::uint32_t>(started);
    }
    if constexpr (Partitioned) {
      auto& heap = proc_ready_[job_proc_[job]];
      heap.push_back((static_cast<std::uint64_t>(key[job]) << 32) | job);
      std::push_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
    } else {
      ready_.insert(key[job]);
    }
  };
  const auto release = [&](std::uint32_t proc) {
    if constexpr (Partitioned) {
      proc_free_flag_[proc] = 1;
    } else {
      free_procs_.push_back(proc);
      std::push_heap(free_procs_.begin(), free_procs_.end(), std::greater<std::uint32_t>());
    }
  };
  // The next start at t, if any: the lowest-key ready job and its
  // processor (the smallest free index, or the job's own when free).
  const auto pick = [&](std::uint32_t& job, std::uint32_t& proc) -> bool {
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
      auto& heap = proc_ready_[best];
      job = static_cast<std::uint32_t>(heap.front());
      std::pop_heap(heap.begin(), heap.end(), std::greater<std::uint64_t>());
      heap.pop_back();
      proc = static_cast<std::uint32_t>(best);
    } else {
      if (ready_.size == 0 || free_procs_.empty()) {
        return false;
      }
      const std::uint32_t k = ready_.front();
      ready_.erase(k);
      job = job_at[k];
      proc = free_procs_.front();
      std::pop_heap(free_procs_.begin(), free_procs_.end(), std::greater<std::uint32_t>());
      free_procs_.pop_back();
    }
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
        // Pop log: the started job, its instant, the next-best ready key
        // (nothing has been pushed since the pop) and the job->pop inverse.
        base.pop_job[started] = job;
        base.pop_t[started] = t;
        base.second_key[started] = ready_.size == 0 ? ~std::uint32_t{0} : ready_.front();
        base.start_idx[job] = static_cast<std::uint32_t>(started);
      } else if constexpr (P == Pass::kMove) {
        // `diff` after adding `job` to this run's started set and the
        // baseline's pop `started` to its own; `horizon` over the jobs
        // started at another instant than in the baseline.
        move_stamp_[job] = move_epoch_;
        const std::uint32_t base_job = base.pop_job[started];
        if (job != base_job) {
          diff += base.start_idx[job] < started ? -1 : 1;
          diff += move_stamp_[base_job] == move_epoch_ ? -1 : 1;
        }
        const T& base_start = base.pop_t[base.start_idx[job]];
        if (t != base_start) {
          const T later = add_wcet(t < base_start ? base_start : t, wcet[job]);
          if (horizon < later) {
            horizon = later;
          }
        }
        if (job == job_a || (two_jobs && job == job_b)) {
          --unstarted_moved;
        }
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
          ck.ready_at.assign(ready_at.begin(), ready_at.end());
          ck.remaining.assign(remaining_.begin(), remaining_.end());
          ck.ready = ready_;
          ck.busy = busy;
          ck.pending = pending;
          ck.free_procs = free_procs_;
        }
      } else if constexpr (P == Pass::kMove) {
        // Rejoined the baseline (see the header): splice its suffix.
        if (unstarted_moved == 0 && diff == 0 && !(t < horizon) && started < n &&
            t == base.pop_t[started - 1]) {
          stats_.starts_simulated += started - first_start;
          ++stats_.spliced_evals;
          T mk = last_finish;
          if (mk < base.suffix_max[started]) {
            mk = base.suffix_max[started];
          }
          return EvalScore{violations + base.suffix_viol[started], time_of(mk)};
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
    // Suffix aggregates over pops >= k, one backward pass.
    base.suffix_viol[n] = 0;
    base.suffix_max[n] = T{};
    for (std::size_t k = n; k-- > 0;) {
      const std::uint32_t job = base.pop_job[k];
      const T finish = add_wcet(base.pop_t[k], wcet[job]);
      base.suffix_viol[k] = base.suffix_viol[k + 1] + (deadline[job] < finish ? 1 : 0);
      base.suffix_max[k] = base.suffix_max[k + 1] < finish ? finish : base.suffix_max[k + 1];
    }
    base.valid = true;
  }
  return EvalScore{violations, time_of(last_finish)};
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
  load_keys(priority, key_, job_at_);
  ++stats_.full_evals;
  return run_pass<Pass::kScore>();
}

EvalScore Evaluator::evaluate_baseline(const std::vector<JobId>& priority) {
  if (partition_mode_) {
    throw std::logic_error("evaluator: incremental baseline requires global mode");
  }
  load_keys(priority, base_key_, base_job_at_);
  base_order_.assign(priority.begin(), priority.end());
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
  if (priority.size() != n) {
    throw std::invalid_argument("evaluator: SP order must cover every job");
  }
  ++stats_.incremental_evals;
  if (n == 0) {
    return EvalScore{0, Time()};
  }
  // `priority` must be exactly the claimed perturbation of the baseline
  // (which, the baseline being a validated permutation, also proves it is
  // one): everything outside [lo, hi] in place, the window as claimed.
  const JobId* const p = priority.data();
  const JobId* const b = base_order_.data();
  const bool swap = kind == MoveKind::kSwap;
  bool claimed = same_jobs(p, b, lo) && same_jobs(p + hi + 1, b + hi + 1, n - hi - 1) &&
                 p[lo] == b[hi];
  if (swap) {
    claimed = claimed && p[hi] == b[lo] &&
              (hi == lo || same_jobs(p + lo + 1, b + lo + 1, hi - lo - 1));
  } else {
    claimed = claimed && same_jobs(p + lo + 1, b + lo, hi - lo);
  }
  if (!claimed) {
    throw std::invalid_argument(
        "evaluator: order is not the claimed perturbation of the baseline");
  }
  // Patch the moved jobs' keys, score, restore.
  const std::uint32_t a = static_cast<std::uint32_t>(b[hi].value());
  const auto exchange = [&] {
    std::swap(base_key_[a], base_key_[b[lo].value()]);
    std::swap(base_job_at_[key_of(lo)], base_job_at_[key_of(hi)]);
  };
  if (swap) {
    exchange();
  } else {
    base_key_[a] = static_cast<std::uint32_t>(2 * lo);
    base_job_at_[2 * lo] = a;
  }
  const EvalScore score = run_pass<Pass::kMove>(lo, hi, kind);
  if (swap) {
    exchange();
  } else {
    base_key_[a] = key_of(hi);
  }
  return score;
}

StaticSchedule Evaluator::materialize(const std::vector<JobId>& priority) {
  EvalScore score;
  return materialize(priority, score);
}

StaticSchedule Evaluator::materialize(const std::vector<JobId>& priority, EvalScore& score) {
  load_keys(priority, key_, job_at_);
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
