#include "sched/partitioned.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

namespace fppn {

StaticSchedule partitioned_list_schedule(const TaskGraph& tg,
                                         const std::vector<ProcessorId>& assignment,
                                         const std::vector<JobId>& priority,
                                         std::int64_t processors) {
  const std::size_t n = tg.job_count();
  if (priority.size() != n) {
    throw std::invalid_argument("partitioned schedule: SP order must cover every job");
  }
  StaticSchedule schedule(n, processors);
  if (n == 0) {
    return schedule;
  }
  const auto proc_of = [&](JobId id) {
    const std::size_t p = tg.job(id).process.value();
    if (p >= assignment.size() || !assignment[p].is_valid() ||
        static_cast<std::int64_t>(assignment[p].value()) >= processors) {
      throw std::invalid_argument("partitioned schedule: job '" + tg.job(id).name +
                                  "' has no valid processor assignment");
    }
    return assignment[p];
  };

  std::vector<std::size_t> rank(n, 0);
  for (std::size_t r = 0; r < priority.size(); ++r) {
    rank[priority[r].value()] = r;
  }
  std::vector<std::size_t> unfinished_preds(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    unfinished_preds[i] = tg.predecessors(JobId(i)).size();
  }
  std::vector<bool> started(n, false);
  std::vector<Time> finish(n);
  std::vector<Time> proc_free(static_cast<std::size_t>(processors));

  std::size_t remaining = n;
  Time t = tg.job(JobId(0)).arrival;
  for (std::size_t i = 1; i < n; ++i) {
    t = std::min(t, tg.job(JobId(i)).arrival);
  }

  while (remaining > 0) {
    // Highest-SP job that is ready AND whose own processor is free.
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < n; ++i) {
      if (started[i] || unfinished_preds[i] > 0 || tg.job(JobId(i)).arrival > t) {
        continue;
      }
      bool preds_done = true;
      for (const JobId p : tg.predecessors(JobId(i))) {
        if (finish[p.value()] > t) {
          preds_done = false;
          break;
        }
      }
      if (!preds_done || proc_free[proc_of(JobId(i)).value()] > t) {
        continue;
      }
      if (!best.has_value() || rank[i] < rank[*best]) {
        best = i;
      }
    }
    if (best.has_value()) {
      const std::size_t i = *best;
      const ProcessorId m = proc_of(JobId(i));
      started[i] = true;
      finish[i] = t + tg.job(JobId(i)).wcet;
      schedule.place(JobId(i), m, t);
      proc_free[m.value()] = finish[i];
      for (const JobId s : tg.successors(JobId(i))) {
        --unfinished_preds[s.value()];
      }
      --remaining;
      continue;
    }
    std::optional<Time> next;
    const auto consider = [&](const Time& cand) {
      if (cand > t && (!next.has_value() || cand < *next)) {
        next = cand;
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!started[i]) {
        consider(tg.job(JobId(i)).arrival);
      } else {
        consider(finish[i]);
      }
    }
    for (const Time& f : proc_free) {
      consider(f);
    }
    if (!next.has_value()) {
      throw std::logic_error("partitioned schedule: stalled with no future event");
    }
    t = *next;
  }
  return schedule;
}

std::vector<ProcessorId> wfd_assignment(const TaskGraph& tg,
                                        std::size_t process_count,
                                        std::int64_t processors) {
  std::vector<ProcessorId> assignment(process_count, ProcessorId());
  if (processors < 1) {
    throw std::invalid_argument("partitioning needs at least one processor");
  }

  // Per-process demand: sum of job WCETs (relative to one frame).
  std::vector<Duration> demand(process_count);
  for (const Job& j : tg.jobs()) {
    if (j.process.value() >= process_count) {
      throw std::invalid_argument("partitioning: job process id out of range");
    }
    demand[j.process.value()] += j.wcet;
  }
  // Worst-fit decreasing on demand (balances the bins).
  std::vector<std::size_t> order(process_count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (demand[a] != demand[b]) {
      return demand[a] > demand[b];
    }
    return a < b;
  });
  std::vector<Duration> bin(static_cast<std::size_t>(processors));
  for (const std::size_t p : order) {
    if (demand[p].is_zero()) {
      continue;  // process with no jobs in this frame
    }
    std::size_t lightest = 0;
    for (std::size_t m = 1; m < bin.size(); ++m) {
      if (bin[m] < bin[lightest]) {
        lightest = m;
      }
    }
    assignment[p] = ProcessorId(lightest);
    bin[lightest] += demand[p];
  }
  return assignment;
}

PartitionedResult partition_and_schedule(const TaskGraph& tg,
                                         std::size_t process_count,
                                         std::int64_t processors,
                                         PriorityHeuristic heuristic) {
  PartitionedResult result;
  result.assignment = wfd_assignment(tg, process_count, processors);
  sched::Evaluator kernel(tg, processors, result.assignment);
  result.schedule = kernel.materialize(schedule_priority(tg, heuristic));
  result.feasible = result.schedule.count_violations(tg).feasible();
  return result;
}

PartitionedScheduler::PartitionedScheduler(const TaskGraph& tg,
                                           std::size_t process_count,
                                           std::int64_t processors)
    : processors_(processors),
      assignment_(wfd_assignment(tg, process_count, processors)),
      kernel_(tg, processors, assignment_) {}

StaticSchedule PartitionedScheduler::schedule_order(const std::vector<JobId>& priority) {
  return kernel_.materialize(priority);
}

sched::EvalScore PartitionedScheduler::evaluate_order(const std::vector<JobId>& priority) {
  return kernel_.evaluate(priority);
}

}  // namespace fppn
