#include "testing/list_scheduler.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace fppn {
namespace testing {
namespace {

/// The rescan behind both entry points. Global mode (`assignment` null):
/// the smallest-index free processor takes the highest-SP ready job.
/// Partition mode: the highest-SP ready job whose own processor is free
/// starts there.
StaticSchedule rescan(const TaskGraph& tg, const std::vector<JobId>& priority,
                      std::int64_t processors,
                      const std::vector<ProcessorId>* assignment) {
  const std::size_t n = tg.job_count();
  if (priority.size() != n) {
    throw std::invalid_argument("list_schedule: SP order must cover every job");
  }
  if (!tg.is_acyclic()) {
    throw std::invalid_argument("list_schedule: task graph is cyclic");
  }
  StaticSchedule schedule(n, processors);
  if (n == 0) {
    return schedule;
  }

  // rank[i] = position in the SP order (0 = highest priority).
  std::vector<std::size_t> rank(n, 0);
  {
    std::vector<bool> seen(n, false);
    for (std::size_t r = 0; r < priority.size(); ++r) {
      const std::size_t i = priority[r].value();
      if (i >= n || seen[i]) {
        throw std::invalid_argument("list_schedule: SP order is not a permutation");
      }
      seen[i] = true;
      rank[i] = r;
    }
  }
  const auto pinned_processor = [&](std::size_t i) {
    const std::size_t p = tg.job(JobId(i)).process.value();
    if (p >= assignment->size() || !(*assignment)[p].is_valid() ||
        static_cast<std::int64_t>((*assignment)[p].value()) >= processors) {
      throw std::invalid_argument("partitioned schedule: job '" + tg.job(JobId(i)).name +
                                  "' has no valid processor assignment");
    }
    return (*assignment)[p].value();
  };

  std::vector<std::size_t> unfinished_preds(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    unfinished_preds[i] = tg.predecessors(JobId(i)).size();
  }
  std::vector<bool> started(n, false);
  std::vector<Time> finish(n);          // valid once started
  std::vector<Time> proc_free(static_cast<std::size_t>(processors));

  std::size_t remaining = n;
  // Start at the earliest arrival so leading idle time is skipped.
  Time t = tg.job(JobId(0)).arrival;
  for (std::size_t i = 1; i < n; ++i) {
    t = std::min(t, tg.job(JobId(i)).arrival);
  }

  while (remaining > 0) {
    // Global mode: the free processor with the smallest index at t.
    std::optional<std::size_t> free_proc;
    if (assignment == nullptr) {
      for (std::size_t m = 0; m < proc_free.size(); ++m) {
        if (proc_free[m] <= t) {
          free_proc = m;
          break;
        }
      }
    }
    // Highest-SP ready job at t whose processor is free.
    std::optional<std::size_t> best;
    std::size_t best_proc = 0;
    if (assignment != nullptr || free_proc.has_value()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (started[i] || unfinished_preds[i] > 0 || tg.job(JobId(i)).arrival > t) {
          continue;
        }
        // Predecessors must also have *completed* by t.
        bool preds_done = true;
        for (const JobId p : tg.predecessors(JobId(i))) {
          if (finish[p.value()] > t) {
            preds_done = false;
            break;
          }
        }
        if (!preds_done) {
          continue;
        }
        const std::size_t m = assignment == nullptr ? *free_proc : pinned_processor(i);
        if (proc_free[m] > t) {
          continue;
        }
        if (!best.has_value() || rank[i] < rank[*best]) {
          best = i;
          best_proc = m;
        }
      }
    }

    if (best.has_value()) {
      const std::size_t i = *best;
      started[i] = true;
      finish[i] = t + tg.job(JobId(i)).wcet;
      schedule.place(JobId(i), ProcessorId(best_proc), t);
      proc_free[best_proc] = finish[i];
      for (const JobId s : tg.successors(JobId(i))) {
        --unfinished_preds[s.value()];
      }
      --remaining;
      continue;
    }

    // Nothing startable: advance t to the next event strictly after t
    // (an arrival of an unstarted job, a job completion, or a processor
    // release).
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
      throw std::logic_error("list_schedule: stalled with no future event");
    }
    t = *next;
  }
  return schedule;
}

}  // namespace

StaticSchedule list_schedule(const TaskGraph& tg, const std::vector<JobId>& priority,
                             std::int64_t processors) {
  return rescan(tg, priority, processors, nullptr);
}

StaticSchedule list_schedule(const TaskGraph& tg, PriorityHeuristic heuristic,
                             std::int64_t processors) {
  return list_schedule(tg, schedule_priority(tg, heuristic), processors);
}

StaticSchedule partitioned_list_schedule(const TaskGraph& tg,
                                         const std::vector<ProcessorId>& assignment,
                                         const std::vector<JobId>& priority,
                                         std::int64_t processors) {
  return rescan(tg, priority, processors, &assignment);
}

}  // namespace testing
}  // namespace fppn
