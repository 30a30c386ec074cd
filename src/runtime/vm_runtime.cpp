#include "runtime/vm_runtime.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <type_traits>

#include "rt/tick_grid.hpp"

namespace fppn {
namespace {

constexpr std::size_t kNoScript = std::numeric_limits<std::size_t>::max();

/// Static (frame-independent) execution plan of one job, built once per
/// run so that a frame only adds its base to the offsets. Its times live
/// in the timebase's Lane.
struct JobPlan {
  std::size_t proc = 0;
  std::optional<JobId> prev_on_proc;  ///< previous job in the static order
  std::optional<JobId> prev_of_process;  ///< previous job of same process in frame
  ProcessId process;
  // Server jobs only (server == nullptr otherwise):
  const ServerInfo* server = nullptr;
  int burst_rank = 0;      ///< t: the job stands for the t-th invocation of its window
  std::size_t script = 0;  ///< the process's script in the Lane; kNoScript: none
};

/// The run's frame-independent plan, whichever timebase walks it.
struct Plan {
  std::vector<JobPlan> jobs;
  std::vector<std::vector<JobId>> order;  ///< per-processor static order
  std::vector<JobId> walk;                ///< the walk order of every frame
  std::vector<const std::vector<Time>*> scripts;  ///< the scripted processes' times
};

/// The span type beside an instant type: Duration beside Time, ticks
/// beside ticks.
template <class T>
using Span = std::conditional_t<std::is_same_v<T, Time>, Duration, T>;

/// One job's times, as spans from its frame base.
template <class T>
struct JobTimes {
  Span<T> arrival;   ///< A_i
  Span<T> deadline;  ///< D_i
  Span<T> wcet;
  Span<T> subset_offset;  ///< server jobs: (subset - 1) * T', boundary - frame base
  Span<T> server_period;  ///< server jobs: T', the window length
};

/// Every time the frame loop reads, in one representation: exact Time,
/// or int64 ticks of a grid of `ticks_per_ms` ticks per ms.
template <class T>
struct Lane {
  std::int64_t ticks_per_ms = 1;
  Span<T> h;
  Span<T> first_overhead;
  Span<T> other_overhead;
  Span<T> per_job_sync;
  std::vector<JobTimes<T>> jobs;
  std::vector<std::vector<T>> scripts;  ///< parallel to Plan::scripts, sorted
};

/// The exact Time an instant of a lane stands for.
const Time& exact(const Time& t, std::int64_t /*ticks_per_ms*/) { return t; }
Time exact(std::int64_t ticks, std::int64_t ticks_per_ms) {
  return Time(ticks_per_ms == 1 ? Rational(ticks) : Rational(ticks, ticks_per_ms));
}

Time frame_base_at(const Duration& h, std::int64_t frame) {
  return Time() + h * Rational(frame);
}
std::int64_t frame_base_at(std::int64_t h, std::int64_t frame) { return h * frame; }

/// out = a + b. False when a tick sum leaves int64; exact arithmetic
/// throws RationalError instead.
template <class A>
bool add_into(const A& a, const Duration& b, A& out) {
  out = a + b;
  return true;
}
bool add_into(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_add_overflow(a, b, &out);
}

/// `d` in the lane's representation: itself, or its ticks. False when it
/// is not on the tick grid.
bool on_lane(const Duration& d, std::int64_t /*ticks_per_ms*/, Duration& out) {
  out = d;
  return true;
}
bool on_lane(const Duration& d, std::int64_t ticks_per_ms, std::int64_t& out) {
  const std::optional<std::int64_t> t = ticks::on_grid(d.value(), ticks_per_ms);
  if (t.has_value()) {
    out = *t;
  }
  return t.has_value();
}

/// actual_time's answers in call order. The exact loop that takes over
/// from a tick loop that gave up replays them, so the callback runs once
/// per executed job either way. Up to that point both loops make the same
/// calls in the same order: ticks are lossless, so they decide alike.
class ActualTimes {
 public:
  explicit ActualTimes(const ActualTimeFn& fn) : fn_(fn) {}

  Duration next(JobId id, std::int64_t frame) {
    if (next_ == seen_.size()) {
      seen_.push_back(fn_(id, frame));
    }
    return seen_[next_++];
  }
  void rewind() { next_ = 0; }

 private:
  const ActualTimeFn& fn_;
  std::vector<Duration> seen_;
  std::size_t next_ = 0;
};

/// The walk order, identical in every frame: the topological order over
/// precedence plus the same-processor chains (`next_on_proc`, n for the
/// last job on a processor) that takes the smallest ready job id first.
/// That order is unique, so it does not depend on how the edges are
/// stored. A chain edge that duplicates a precedence edge counts once.
std::vector<JobId> walk_order(const TaskGraph& tg, const std::vector<JobPlan>& plan,
                              const std::vector<std::size_t>& next_on_proc) {
  const std::size_t n = tg.job_count();
  std::vector<std::size_t> indegree(n);
  std::vector<char> chain_only(n, 0);  // prev_on_proc -> i is not a precedence edge
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = tg.predecessors(JobId(i)).size();
    if (plan[i].prev_on_proc.has_value() &&
        !tg.has_edge(*plan[i].prev_on_proc, JobId(i))) {
      chain_only[i] = 1;
      ++indegree[i];
    }
  }
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push(i);
    }
  }
  std::vector<JobId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t u = ready.top();
    ready.pop();
    order.push_back(JobId(u));
    for (const JobId v : tg.successors(JobId(u))) {
      if (--indegree[v.value()] == 0) {
        ready.push(v.value());
      }
    }
    const std::size_t next = next_on_proc[u];
    if (next != n && chain_only[next] != 0 && --indegree[next] == 0) {
      ready.push(next);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument(
        "vm runtime: schedule order conflicts with precedence (cycle)");
  }
  return order;
}

Plan make_plan(const Network& net, const DerivedTaskGraph& derived,
               const StaticSchedule& schedule,
               const std::map<ProcessId, SporadicScript>& sporadics) {
  const TaskGraph& tg = derived.graph;
  const std::size_t n = tg.job_count();
  Plan plan;
  // One script (one cursor) per sporadic process: the walk visits a
  // process's server jobs by nondecreasing window start.
  std::vector<std::size_t> script_of(net.process_count(), kNoScript);
  for (const auto& [process, script] : sporadics) {
    if (process.value() < script_of.size()) {
      script_of[process.value()] = plan.scripts.size();
      plan.scripts.push_back(&script.times());  // SporadicScript stores them sorted
    }
  }
  plan.jobs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& job = tg.job(JobId(i));
    JobPlan& jp = plan.jobs[i];
    jp.process = job.process;
    if (job.is_server) {
      jp.server = &derived.servers.at(job.process);
      jp.burst_rank = static_cast<int>((job.k - 1) % jp.server->burst) + 1;
      jp.script = script_of[job.process.value()];
    }
  }
  plan.order = schedule.per_processor_order();
  std::vector<std::size_t> next_on_proc(n, n);  // n: last on its processor
  for (std::size_t m = 0; m < plan.order.size(); ++m) {
    const std::vector<JobId>& chain = plan.order[m];
    for (std::size_t pos = 0; pos < chain.size(); ++pos) {
      JobPlan& jp = plan.jobs[chain[pos].value()];
      jp.proc = m;
      if (pos > 0) {
        jp.prev_on_proc = chain[pos - 1];
        next_on_proc[chain[pos - 1].value()] = chain[pos].value();
      }
    }
  }
  std::vector<std::optional<JobId>> last_of_process(net.process_count());
  // Jobs are stored in <J order, which respects per-process k order.
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<JobId>& last = last_of_process[plan.jobs[i].process.value()];
    plan.jobs[i].prev_of_process = last;
    last = JobId(i);
  }
  plan.walk = walk_order(tg, plan.jobs, next_on_proc);
  return plan;
}

/// The server period T' of a server job, zero for a periodic one.
Duration server_period_of(const JobPlan& jp) {
  return jp.server != nullptr ? jp.server->server_period : Duration();
}

Lane<Time> exact_lane(const DerivedTaskGraph& derived, const Plan& plan,
                      const OverheadModel& overhead) {
  const TaskGraph& tg = derived.graph;
  Lane<Time> lane;
  lane.h = derived.hyperperiod;
  lane.first_overhead = overhead.first_frame;
  lane.other_overhead = overhead.other_frames;
  lane.per_job_sync = overhead.per_job_sync;
  lane.jobs.reserve(tg.job_count());
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const Job& job = tg.job(JobId(i));
    const Duration period = server_period_of(plan.jobs[i]);
    lane.jobs.push_back(JobTimes<Time>{job.arrival - Time(), job.deadline - Time(), job.wcet,
                                       period * Rational(job.is_server ? job.subset - 1 : 0),
                                       period});
  }
  for (const std::vector<Time>* script : plan.scripts) {
    lane.scripts.push_back(*script);
  }
  return lane;
}

/// The tick lane, when the run fits the deployment's grid (see the
/// header): every converted value lies on it, and every frame base plus a
/// job offset, a window start or an overhead fits in int64. Execution
/// times are checked as the loop adds them. Otherwise nullopt.
std::optional<Lane<std::int64_t>> tick_lane(const DerivedTaskGraph& derived, const Plan& plan,
                                            const OverheadModel& overhead,
                                            std::int64_t frames) {
  const TaskGraph& tg = derived.graph;
  const std::size_t n = tg.job_count();
  std::int64_t l = 1;
  bool ok = ticks::lcm_into(l, derived.hyperperiod.value().den());
  for (const auto& [process, info] : derived.servers) {
    ok = ok && ticks::lcm_into(l, info.server_period.value().den());
  }
  for (std::size_t i = 0; i < n && ok; ++i) {
    const Job& job = tg.job(JobId(i));
    ok = ticks::lcm_into(l, job.arrival.value().den()) &&
         ticks::lcm_into(l, job.deadline.value().den()) &&
         ticks::lcm_into(l, job.wcet.value().den());
  }
  if (!ok) {
    return std::nullopt;
  }
  Lane<std::int64_t> lane;
  lane.ticks_per_ms = l;
  __int128 reach = 0;  // the largest |offset| added to a frame base
  const auto put = [&](const Rational& value, std::int64_t& out) {
    const std::optional<std::int64_t> t = ticks::on_grid(value, l);
    if (!t.has_value()) {
      return false;
    }
    out = *t;
    reach = std::max<__int128>(reach, *t < 0 ? -static_cast<__int128>(*t) : *t);
    return true;
  };
  ok = put(derived.hyperperiod.value(), lane.h) &&
       put(overhead.first_frame.value(), lane.first_overhead) &&
       put(overhead.other_frames.value(), lane.other_overhead) &&
       put(overhead.per_job_sync.value(), lane.per_job_sync);
  lane.jobs.resize(n);
  for (std::size_t i = 0; i < n && ok; ++i) {
    const Job& job = tg.job(JobId(i));
    JobTimes<std::int64_t>& jt = lane.jobs[i];
    ok = put(job.arrival.value(), jt.arrival) && put(job.deadline.value(), jt.deadline) &&
         put(job.wcet.value(), jt.wcet) &&
         put(server_period_of(plan.jobs[i]).value(), jt.server_period);
    if (ok && job.is_server) {
      // The window start, boundary - T', lies T' before the boundary.
      const __int128 offset = static_cast<__int128>(jt.server_period) * (job.subset - 1);
      ok = offset <= std::numeric_limits<std::int64_t>::max();
      jt.subset_offset = static_cast<std::int64_t>(offset);
      reach = std::max<__int128>(reach, offset + jt.server_period);
    }
  }
  const __int128 last_base = static_cast<__int128>(lane.h) * (frames - 1);
  if (!ok || last_base + reach > std::numeric_limits<std::int64_t>::max()) {
    return std::nullopt;
  }
  lane.scripts.reserve(plan.scripts.size());
  for (const std::vector<Time>* script : plan.scripts) {
    std::vector<std::int64_t>& out = lane.scripts.emplace_back();
    out.reserve(script->size());
    for (const Time& t : *script) {
      const std::optional<std::int64_t> tick = ticks::on_grid(t.value(), l);
      if (!tick.has_value()) {
        return std::nullopt;
      }
      out.push_back(*tick);
    }
  }
  return lane;
}

/// Dynamic per-frame resolution of one job.
template <class T>
struct JobRun {
  bool is_false = false;
  T invocation;  ///< real invocation (sporadic) or frame_base + A_i
  T start;       ///< execution start ('false': the skip instant)
  T end;         ///< completion ('false': == start)
};

/// The frame loop on one lane, then the bodies in causal order on
/// `state`. Nullopt, with `state` untouched, when a tick lane meets an
/// execution time off its grid or an int64 overflow; the exact lane
/// always returns a result.
template <class T>
std::optional<RunResult> run_frames(const Network& net, const TaskGraph& tg,
                                    const Plan& plan, const Lane<T>& lane,
                                    const RunOptions& opts, ActualTimes& actual,
                                    ExecutionState& state) {
  using S = Span<T>;
  const std::size_t n = tg.job_count();
  const std::int64_t per_ms = lane.ticks_per_ms;

  RunResult result;
  result.trace.reserve(static_cast<std::size_t>(opts.frames) * (n + 2));
  std::vector<std::string_view> labels(n);  // each job's name, stored once in the trace
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = result.trace.intern(tg.job(JobId(i)).name);
  }
  std::vector<BasicInvocationCursor<T>> cursors;
  cursors.reserve(lane.scripts.size());
  for (const std::vector<T>& script : lane.scripts) {
    cursors.emplace_back(script);
  }

  // Cross-frame carry-over: completion of the last job per processor and
  // per process (the static-order walk is sequential per processor; jobs
  // of one process must stay mutually exclusive and ordered even when a
  // frame overruns).
  std::vector<T> proc_carry(plan.order.size());
  std::vector<T> process_carry(net.process_count());
  T span_end{};

  struct Executed {
    T start;
    std::uint64_t seq;  ///< frame * n + job id: (frame, id) order
    T invocation;
  };
  std::vector<Executed> executed;  // bodies run later, in causal order
  executed.reserve(n * static_cast<std::size_t>(opts.frames));

  std::vector<JobRun<T>> runs(n);
  for (std::int64_t frame = 0; frame < opts.frames; ++frame) {
    const T frame_base = frame_base_at(lane.h, frame);
    const S& oh = frame == 0 ? lane.first_overhead : lane.other_overhead;
    const T frame_release = frame_base + oh;
    result.trace.add(TraceEvent{TraceEventKind::kFrameStart, frame, ProcessorId(),
                                "frame " + std::to_string(frame), exact(frame_base, per_ms),
                                std::nullopt});
    span_end = std::max(span_end, frame_base);
    if (oh != S{}) {
      result.trace.add(TraceEvent{TraceEventKind::kOverhead, frame, ProcessorId(),
                                  "arrivals", exact(frame_base, per_ms),
                                  exact(frame_release, per_ms)});
      span_end = std::max(span_end, frame_release);
    }

    for (const JobId id : plan.walk) {
      const std::size_t i = id.value();
      const JobPlan& jp = plan.jobs[i];
      const JobTimes<T>& jt = lane.jobs[i];
      JobRun<T>& run = runs[i];
      run = JobRun<T>{};

      // ---- Round step 1: synchronize invocation.
      if (jp.server != nullptr) {
        const T boundary = frame_base + jt.subset_offset;
        const std::optional<T> tth =
            jp.script == kNoScript
                ? std::nullopt
                : cursors[jp.script].tth_in(
                      BasicServerWindow<T>{boundary - jt.server_period, boundary,
                                           jp.server->priority_over_user},
                      jp.burst_rank);
        if (!tth.has_value()) {
          // Marked 'false' at its arrival time A_i (== boundary); the
          // round completes as soon as the processor reaches it, the
          // boundary has passed and every predecessor has completed (its
          // successors inherit that order).
          run.is_false = true;
          T ready = boundary;
          if (jp.prev_on_proc.has_value()) {
            ready = std::max(ready, runs[jp.prev_on_proc->value()].end);
          }
          if (frame > 0 && !jp.prev_on_proc.has_value()) {
            ready = std::max(ready, proc_carry[jp.proc]);
          }
          for (const JobId pred : tg.predecessors(id)) {
            ready = std::max(ready, runs[pred.value()].end);
          }
          run.invocation = boundary;
          run.start = ready;
          run.end = ready;
          result.trace.add(TraceEvent{TraceEventKind::kFalseSkip, frame,
                                      ProcessorId(jp.proc), labels[i], exact(ready, per_ms),
                                      std::nullopt});
          span_end = std::max(span_end, ready);
          ++result.false_skips;
          continue;
        }
        run.invocation = *tth;  // may precede the subset boundary
      } else {
        run.invocation = frame_base + jt.arrival;
      }

      // ---- Round steps 1+2: the start waits for the invocation, the
      // previous round on this processor, all predecessors, the frame
      // overhead release, and (cross-frame) earlier jobs of this process.
      T start = std::max(run.invocation, frame_release);
      if (jp.prev_on_proc.has_value()) {
        start = std::max(start, runs[jp.prev_on_proc->value()].end);
      } else if (frame > 0) {
        start = std::max(start, proc_carry[jp.proc]);
      }
      for (const JobId pred : tg.predecessors(id)) {
        start = std::max(start, runs[pred.value()].end);
      }
      if (!jp.prev_of_process.has_value()) {
        start = std::max(start, process_carry[jp.process.value()]);
      }

      // ---- Round step 3: execute.
      S exec = jt.wcet;
      if (opts.actual_time && !on_lane(actual.next(id, frame), per_ms, exec)) {
        return std::nullopt;
      }
      if (!add_into(exec, lane.per_job_sync, exec)) {
        return std::nullopt;
      }
      if (exec < S{}) {
        throw std::invalid_argument("vm runtime: negative actual execution time");
      }
      run.start = start;
      if (!add_into(start, exec, run.end)) {
        return std::nullopt;
      }
      executed.push_back(
          Executed{start, static_cast<std::uint64_t>(frame) * n + i, run.invocation});
      result.trace.add(TraceEvent{TraceEventKind::kJobRun, frame, ProcessorId(jp.proc),
                                  labels[i], exact(run.start, per_ms),
                                  exact(run.end, per_ms)});
      span_end = std::max(span_end, run.end);
      const T abs_deadline = frame_base + jt.deadline;
      if (run.end > abs_deadline) {
        result.misses.push_back(
            DeadlineMiss{frame, id, exact(run.end, per_ms), exact(abs_deadline, per_ms)});
        result.trace.add(TraceEvent{TraceEventKind::kDeadlineMiss, frame,
                                    ProcessorId(jp.proc), labels[i], exact(run.end, per_ms),
                                    std::nullopt});
      }
      ++result.jobs_executed;
    }

    // Carry completions into the next frame.
    for (std::size_t m = 0; m < plan.order.size(); ++m) {
      if (!plan.order[m].empty()) {
        proc_carry[m] = std::max(proc_carry[m], runs[plan.order[m].back().value()].end);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!runs[i].is_false) {
        T& carry = process_carry[plan.jobs[i].process.value()];
        carry = std::max(carry, runs[i].end);
      }
    }
  }
  result.span_end = exact(span_end, per_ms);

  // Execute the bodies in causal order: by start time, then frame, then
  // <J order (JobId). Precedence edges guarantee FP-related jobs are
  // strictly ordered; FP-unrelated jobs share no channels, so any
  // deterministic tie-break yields the same histories.
  std::sort(executed.begin(), executed.end(), [](const Executed& a, const Executed& b) {
    return a.start != b.start ? a.start < b.start : a.seq < b.seq;
  });
  for (const Executed& e : executed) {
    state.advance_time(exact(e.start, per_ms));
    state.run_job(plan.jobs[e.seq % n].process, exact(e.invocation, per_ms));
  }
  result.histories = std::move(state).histories();
  return result;
}

}  // namespace

RunResult VmFrameLoop::run(const Network& net, const DerivedTaskGraph& derived,
                           const StaticSchedule& schedule, const RunOptions& opts,
                           const InputScripts& inputs,
                           const std::map<ProcessId, SporadicScript>& sporadics,
                           bool try_ticks, bool* on_ticks) {
  const TaskGraph& tg = derived.graph;
  if (opts.frames < 1) {
    throw std::invalid_argument("vm runtime: frames must be >= 1");
  }
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    if (!schedule.is_placed(JobId(i))) {
      throw std::invalid_argument("vm runtime: schedule does not place job '" +
                                  tg.job(JobId(i)).name + "'");
    }
  }
  const Plan plan = make_plan(net, derived, schedule, sporadics);
  ExecutionState state(net, inputs);  // nothing reads the action trace
  ActualTimes actual(opts.actual_time);
  if (try_ticks) {
    if (const auto lane = tick_lane(derived, plan, opts.overhead, opts.frames)) {
      if (auto result = run_frames(net, tg, plan, *lane, opts, actual, state)) {
        if (on_ticks != nullptr) {
          *on_ticks = true;
        }
        return std::move(*result);
      }
      actual.rewind();
    }
  }
  if (on_ticks != nullptr) {
    *on_ticks = false;
  }
  return *run_frames(net, tg, plan, exact_lane(derived, plan, opts.overhead), opts, actual,
                     state);
}

RunResult run_static_order_vm(const Network& net, const DerivedTaskGraph& derived,
                              const StaticSchedule& schedule, const RunOptions& opts,
                              const InputScripts& inputs,
                              const std::map<ProcessId, SporadicScript>& sporadics) {
  return VmFrameLoop::run(net, derived, schedule, opts, inputs, sporadics,
                          /*try_ticks=*/true, nullptr);
}

ZeroDelayResult zero_delay_reference(const Network& net, const Duration& hyperperiod,
                                     std::int64_t frames, const InputScripts& inputs,
                                     const std::map<ProcessId, SporadicScript>& sporadics) {
  const Time horizon = Time() + hyperperiod * Rational(frames);
  const InvocationPlan plan = InvocationPlan::build(net, horizon, sporadics);
  return run_zero_delay_histories(net, plan, inputs);
}

}  // namespace fppn
