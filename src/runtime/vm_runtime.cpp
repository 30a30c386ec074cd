#include "runtime/vm_runtime.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

namespace fppn {
namespace {

/// Static (frame-independent) execution plan of one job, built once per
/// run so that a frame only adds its base to the offsets.
struct JobPlan {
  std::size_t proc = 0;
  std::optional<JobId> prev_on_proc;  ///< previous job in the static order
  std::optional<JobId> prev_of_process;  ///< previous job of same process in frame
  Duration arrival;   ///< A_i, as an offset from the frame base
  Duration deadline;  ///< D_i, as an offset from the frame base
  // Server jobs only (server == nullptr otherwise):
  const ServerInfo* server = nullptr;
  int burst_rank = 0;      ///< t: the job stands for the t-th invocation of its window
  Duration subset_offset;  ///< (subset - 1) * T': subset boundary - frame base
  InvocationCursor* cursor = nullptr;  ///< the process's script; null: no script
  std::string_view label;  ///< the job's name, stored once in the run's trace
};

/// Dynamic per-frame resolution of one job.
struct JobRun {
  bool is_false = false;
  Time invocation;  ///< real invocation (sporadic) or frame_base + A_i
  Time start;       ///< execution start ('false': the skip instant)
  Time end;         ///< completion ('false': == start)
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

}  // namespace

RunResult run_static_order_vm(const Network& net, const DerivedTaskGraph& derived,
                              const StaticSchedule& schedule, const RunOptions& opts,
                              const InputScripts& inputs,
                              const std::map<ProcessId, SporadicScript>& sporadics) {
  const TaskGraph& tg = derived.graph;
  const std::size_t n = tg.job_count();
  if (opts.frames < 1) {
    throw std::invalid_argument("vm runtime: frames must be >= 1");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!schedule.is_placed(JobId(i))) {
      throw std::invalid_argument("vm runtime: schedule does not place job '" +
                                  tg.job(JobId(i)).name + "'");
    }
  }
  const Duration h = derived.hyperperiod;

  // One script cursor per sporadic process: the walk visits a process's
  // server jobs by nondecreasing window start.
  std::vector<InvocationCursor> cursors;
  cursors.reserve(sporadics.size());
  std::vector<InvocationCursor*> cursor_of(net.process_count(), nullptr);
  for (const auto& [process, script] : sporadics) {
    if (process.value() < cursor_of.size()) {
      // SporadicScript stores its times sorted.
      cursor_of[process.value()] = &cursors.emplace_back(script.times());
    }
  }
  // Static plan: frame offsets, server data, previous job on the same
  // processor / of the same process.
  std::vector<JobPlan> plan(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Job& job = tg.job(JobId(i));
    JobPlan& jp = plan[i];
    jp.arrival = job.arrival - Time();
    jp.deadline = job.deadline - Time();
    if (job.is_server) {
      jp.server = &derived.servers.at(job.process);
      jp.burst_rank = static_cast<int>((job.k - 1) % jp.server->burst) + 1;
      jp.subset_offset = jp.server->server_period * Rational(job.subset - 1);
      jp.cursor = cursor_of[job.process.value()];
    }
  }
  const auto order = schedule.per_processor_order();
  std::vector<std::size_t> next_on_proc(n, n);  // n: last on its processor
  for (std::size_t m = 0; m < order.size(); ++m) {
    for (std::size_t pos = 0; pos < order[m].size(); ++pos) {
      JobPlan& jp = plan[order[m][pos].value()];
      jp.proc = m;
      if (pos > 0) {
        jp.prev_on_proc = order[m][pos - 1];
        next_on_proc[order[m][pos - 1].value()] = order[m][pos].value();
      }
    }
  }
  {
    std::vector<std::optional<JobId>> last_of_process(net.process_count());
    // Jobs are stored in <J order, which respects per-process k order.
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<JobId>& last = last_of_process[tg.job(JobId(i)).process.value()];
      plan[i].prev_of_process = last;
      last = JobId(i);
    }
  }

  const std::vector<JobId> topo = walk_order(tg, plan, next_on_proc);

  RunResult result;
  ExecutionState state(net, inputs);  // nothing reads the action trace
  result.trace.reserve(static_cast<std::size_t>(opts.frames) * (n + 2));
  for (std::size_t i = 0; i < n; ++i) {
    plan[i].label = result.trace.intern(tg.job(JobId(i)).name);
  }

  // Cross-frame carry-over: completion of the last job per processor and
  // per process (the static-order walk is sequential per processor; jobs
  // of one process must stay mutually exclusive and ordered even when a
  // frame overruns).
  std::vector<Time> proc_carry(order.size());
  std::vector<Time> process_carry(net.process_count());

  struct Executed {
    Time start;
    std::int64_t frame;
    JobId id;
    Time invocation;
  };
  std::vector<Executed> executed;  // bodies run later, in causal order
  executed.reserve(n * static_cast<std::size_t>(opts.frames));

  std::vector<JobRun> runs(n);
  for (std::int64_t frame = 0; frame < opts.frames; ++frame) {
    const Time frame_base = Time() + h * Rational(frame);
    const Duration oh = opts.overhead.frame_overhead(frame);
    const Time frame_release = frame_base + oh;
    result.trace.add(TraceEvent{TraceEventKind::kFrameStart, frame, ProcessorId(),
                                "frame " + std::to_string(frame), frame_base,
                                std::nullopt});
    if (!oh.is_zero()) {
      result.trace.add(TraceEvent{TraceEventKind::kOverhead, frame, ProcessorId(),
                                  "arrivals", frame_base, frame_release});
    }

    result.span_end = std::max(result.span_end, frame_base);
    if (!oh.is_zero()) {
      result.span_end = std::max(result.span_end, frame_release);
    }

    for (const JobId id : topo) {
      const std::size_t i = id.value();
      const Job& job = tg.job(id);
      const JobPlan& jp = plan[i];
      JobRun& run = runs[i];
      run = JobRun{};

      // ---- Round step 1: synchronize invocation.
      if (jp.server != nullptr) {
        const Time boundary = frame_base + jp.subset_offset;
        const std::optional<Time> tth =
            jp.cursor == nullptr
                ? std::nullopt
                : jp.cursor->tth_in(server_window(*jp.server, boundary), jp.burst_rank);
        if (!tth.has_value()) {
          // Marked 'false' at its arrival time A_i (== boundary); the
          // round completes as soon as the processor reaches it, the
          // boundary has passed and every predecessor has completed (its
          // successors inherit that order).
          run.is_false = true;
          Time ready = boundary;
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
                                      ProcessorId(jp.proc), jp.label, ready,
                                      std::nullopt});
          result.span_end = std::max(result.span_end, ready);
          ++result.false_skips;
          continue;
        }
        run.invocation = *tth;  // may precede the subset boundary
      } else {
        run.invocation = frame_base + jp.arrival;
      }

      // ---- Round steps 1+2: the start waits for the invocation, the
      // previous round on this processor, all predecessors, the frame
      // overhead release, and (cross-frame) earlier jobs of this process.
      Time start = std::max(run.invocation, frame_release);
      if (jp.prev_on_proc.has_value()) {
        start = std::max(start, runs[jp.prev_on_proc->value()].end);
      } else if (frame > 0) {
        start = std::max(start, proc_carry[jp.proc]);
      }
      for (const JobId pred : tg.predecessors(id)) {
        start = std::max(start, runs[pred.value()].end);
      }
      if (!jp.prev_of_process.has_value()) {
        start = std::max(start, process_carry[job.process.value()]);
      }

      // ---- Round step 3: execute.
      const Duration exec =
          (opts.actual_time ? opts.actual_time(id, frame) : job.wcet) +
          opts.overhead.per_job_sync;
      if (exec.is_negative()) {
        throw std::invalid_argument("vm runtime: negative actual execution time");
      }
      run.start = start;
      run.end = start + exec;
      executed.push_back(Executed{start, frame, id, run.invocation});
      result.trace.add(TraceEvent{TraceEventKind::kJobRun, frame, ProcessorId(jp.proc),
                                  jp.label, run.start, run.end});
      result.span_end = std::max(result.span_end, run.end);
      const Time abs_deadline = frame_base + jp.deadline;
      if (run.end > abs_deadline) {
        result.misses.push_back(DeadlineMiss{frame, id, run.end, abs_deadline});
        result.trace.add(TraceEvent{TraceEventKind::kDeadlineMiss, frame,
                                    ProcessorId(jp.proc), jp.label, run.end,
                                    std::nullopt});
      }
      ++result.jobs_executed;
    }

    // Carry completions into the next frame.
    for (std::size_t m = 0; m < order.size(); ++m) {
      if (!order[m].empty()) {
        proc_carry[m] =
            std::max(proc_carry[m], runs[order[m].back().value()].end);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!runs[i].is_false) {
        process_carry[tg.job(JobId(i)).process.value()] =
            std::max(process_carry[tg.job(JobId(i)).process.value()], runs[i].end);
      }
    }
  }

  // Execute the bodies in causal order: by start time, then frame, then
  // <J order (JobId). Precedence edges guarantee FP-related jobs are
  // strictly ordered; FP-unrelated jobs share no channels, so any
  // deterministic tie-break yields the same histories.
  std::sort(executed.begin(), executed.end(), [](const Executed& a, const Executed& b) {
    if (a.start != b.start) {
      return a.start < b.start;
    }
    if (a.frame != b.frame) {
      return a.frame < b.frame;
    }
    return a.id < b.id;
  });
  for (const Executed& e : executed) {
    state.advance_time(e.start);
    state.run_job(tg.job(e.id).process, e.invocation);
  }

  result.histories = std::move(state).histories();
  return result;
}

ZeroDelayResult zero_delay_reference(const Network& net, const Duration& hyperperiod,
                                     std::int64_t frames, const InputScripts& inputs,
                                     const std::map<ProcessId, SporadicScript>& sporadics) {
  const Time horizon = Time() + hyperperiod * Rational(frames);
  const InvocationPlan plan = InvocationPlan::build(net, horizon, sporadics);
  return run_zero_delay_histories(net, plan, inputs);
}

}  // namespace fppn
