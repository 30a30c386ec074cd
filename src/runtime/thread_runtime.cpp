#include "runtime/thread_runtime.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace fppn {
namespace {

using SteadyClock = std::chrono::steady_clock;
using WallPoint = SteadyClock::time_point;

/// Model-time <-> wall-time conversion anchored at a run origin.
class WallClock {
 public:
  explicit WallClock(double micros_per_model_ms)
      : origin_(SteadyClock::now() + std::chrono::milliseconds(2)),
        scale_(micros_per_model_ms) {}

  [[nodiscard]] WallPoint wall_of(const Time& model) const {
    return origin_ + std::chrono::microseconds(
                         static_cast<std::int64_t>(model.to_double_ms() * scale_));
  }

  [[nodiscard]] WallPoint wall_of_span(const Duration& model) const {
    return SteadyClock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                                    model.to_double_ms() * scale_));
  }

  /// Measured wall time back to model milliseconds (rounded to 1 us of
  /// wall time resolution).
  [[nodiscard]] Time model_of(WallPoint wall) const {
    const double micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              wall - origin_)
                              .count();
    const double model_ms = micros / scale_;
    // Quantize to 1/1000 model ms so Rational stays small.
    return Time(Rational(static_cast<std::int64_t>(model_ms * 1000.0), 1000));
  }

 private:
  WallPoint origin_;
  double scale_;
};

/// Per-frame completion flags with cross-thread waiting.
class CompletionBoard {
 public:
  CompletionBoard(std::size_t jobs, std::int64_t frames)
      : jobs_(jobs), done_(jobs * static_cast<std::size_t>(frames)) {
    for (auto& f : done_) {
      f.store(false, std::memory_order_relaxed);
    }
  }

  void mark(std::int64_t frame, JobId id) {
    done_[index(frame, id)].store(true, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lock(mu_);
    }
    cv_.notify_all();
  }

  void await(std::int64_t frame, JobId id) {
    auto& flag = done_[index(frame, id)];
    if (flag.load(std::memory_order_acquire)) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&flag] { return flag.load(std::memory_order_acquire); });
  }

 private:
  [[nodiscard]] std::size_t index(std::int64_t frame, JobId id) const {
    return static_cast<std::size_t>(frame) * jobs_ + id.value();
  }

  std::size_t jobs_;
  std::vector<std::atomic<bool>> done_;
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace

RunResult run_static_order_threads(const Network& net, const DerivedTaskGraph& derived,
                                   const StaticSchedule& schedule,
                                   const RunOptions& opts,
                                   const InputScripts& inputs,
                                   const std::map<ProcessId, SporadicScript>& sporadics) {
  const TaskGraph& tg = derived.graph;
  const std::size_t n = tg.job_count();
  if (opts.frames < 1) {
    throw std::invalid_argument("thread runtime: frames must be >= 1");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!schedule.is_placed(JobId(i))) {
      throw std::invalid_argument("thread runtime: unplaced job '" +
                                  tg.job(JobId(i)).name + "'");
    }
  }
  const Duration h = derived.hyperperiod;
  const auto order = schedule.per_processor_order();

  WallClock clock(opts.micros_per_model_ms);
  CompletionBoard board(n, opts.frames);

  // Previous job of the same process (for cross-frame k-order safety).
  std::vector<std::optional<JobId>> prev_of_process(n);
  {
    std::map<ProcessId, JobId> last;
    for (std::size_t i = 0; i < n; ++i) {
      const ProcessId p = tg.job(JobId(i)).process;
      if (const auto it = last.find(p); it != last.end()) {
        prev_of_process[i] = it->second;
      }
      last[p] = JobId(i);
    }
  }
  // Last job (by <J order) of each process in a frame, to gate the first
  // job of the next frame.
  std::map<ProcessId, JobId> last_job_of_process;
  for (std::size_t i = 0; i < n; ++i) {
    last_job_of_process[tg.job(JobId(i)).process] = JobId(i);
  }

  // Shared functional state, serialized by a mutex (the paper's runtime
  // serves read/write requests centrally).
  ExecutionState state(net, inputs);
  std::mutex state_mu;

  // Collected per-worker, merged afterwards.
  struct LocalEvent {
    TraceEvent event;
    std::optional<DeadlineMiss> miss;
  };
  std::vector<std::vector<LocalEvent>> local(order.size());

  std::vector<std::thread> workers;
  workers.reserve(order.size());
  for (std::size_t m = 0; m < order.size(); ++m) {
    workers.emplace_back([&, m] {
      auto& log = local[m];
      for (std::int64_t frame = 0; frame < opts.frames; ++frame) {
        const Time frame_base = Time() + h * Rational(frame);
        for (const JobId id : order[m]) {
          const Job& job = tg.job(id);
          // ---- Synchronize invocation: membership from the script,
          // delivery at its wall time ('false': at the subset boundary).
          std::optional<Time> invocation = frame_base + (job.arrival - Time());
          Time delivery = *invocation;
          if (job.is_server) {
            const ServerInfo& info = derived.servers.at(job.process);
            const int t = static_cast<int>((job.k - 1) % info.burst) + 1;
            const Time boundary = subset_boundary(info, frame, job.subset, h);
            const auto script = sporadics.find(job.process);
            invocation = script == sporadics.end()
                             ? std::nullopt
                             : tth_invocation_in(script->second.times(),
                                                 server_window(info, boundary), t);
            delivery = invocation.value_or(boundary);
          }
          std::this_thread::sleep_until(clock.wall_of(delivery));
          if (!invocation.has_value()) {
            // A 'false' job completes only after its predecessors, so
            // its successors stay ordered after them.
            for (const JobId pred : tg.predecessors(id)) {
              board.await(frame, pred);
            }
            log.push_back(LocalEvent{
                TraceEvent{TraceEventKind::kFalseSkip, frame, ProcessorId(m), job.name,
                           clock.model_of(SteadyClock::now()), std::nullopt},
                std::nullopt});
            board.mark(frame, id);
            continue;
          }
          // ---- Synchronize precedence (predecessors may run anywhere).
          for (const JobId pred : tg.predecessors(id)) {
            board.await(frame, pred);
          }
          // Cross-frame same-process order.
          if (frame > 0 && !prev_of_process[id.value()].has_value()) {
            board.await(frame - 1, last_job_of_process.at(job.process));
          }
          // ---- Execute.
          const WallPoint wall_start = SteadyClock::now();
          {
            // advance_time() is deliberately not called here: measured wall
            // times are not monotone across workers and the w(t) markers
            // are only informative; histories depend on run_job order,
            // which the precedence waits above already fix.
            const std::lock_guard<std::mutex> lock(state_mu);
            state.run_job(job.process, *invocation);
          }
          const Duration span =
              opts.actual_time ? opts.actual_time(id, frame) : job.wcet;
          std::this_thread::sleep_until(clock.wall_of_span(span));
          const WallPoint wall_end = SteadyClock::now();
          board.mark(frame, id);

          const Time t_start = clock.model_of(wall_start);
          const Time t_end = clock.model_of(wall_end);
          log.push_back(LocalEvent{TraceEvent{TraceEventKind::kJobRun, frame,
                                              ProcessorId(m), job.name, t_start,
                                              t_end},
                                   std::nullopt});
          const Time abs_deadline = frame_base + (job.deadline - Time());
          if (t_end > abs_deadline) {
            log.push_back(LocalEvent{
                TraceEvent{TraceEventKind::kDeadlineMiss, frame, ProcessorId(m),
                           job.name, t_end, std::nullopt},
                DeadlineMiss{frame, id, t_end, abs_deadline}});
          }
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  RunResult result;
  for (std::int64_t frame = 0; frame < opts.frames; ++frame) {
    result.trace.add(TraceEvent{TraceEventKind::kFrameStart, frame, ProcessorId(),
                                "frame " + std::to_string(frame),
                                Time() + h * Rational(frame), std::nullopt});
  }
  for (const auto& log : local) {
    for (const LocalEvent& e : log) {
      result.trace.add(e.event);
      if (e.miss.has_value()) {
        result.misses.push_back(*e.miss);
      }
      if (e.event.kind == TraceEventKind::kJobRun) {
        ++result.jobs_executed;
      } else if (e.event.kind == TraceEventKind::kFalseSkip) {
        ++result.false_skips;
      }
    }
  }
  result.histories = state.histories();
  result.span_end = result.trace.span_end();
  return result;
}

}  // namespace fppn
