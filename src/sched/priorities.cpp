#include "sched/priorities.hpp"

#include <algorithm>
#include <stdexcept>

#include "taskgraph/analysis.hpp"

namespace fppn {

std::string to_string(PriorityHeuristic h) {
  switch (h) {
    case PriorityHeuristic::kAlapEdf:
      return "alap-edf";
    case PriorityHeuristic::kBLevel:
      return "b-level";
    case PriorityHeuristic::kDeadlineMonotonic:
      return "deadline-monotonic";
    case PriorityHeuristic::kArrivalOrder:
      return "arrival-order";
  }
  return "?";
}

const std::vector<PriorityHeuristic>& all_heuristics() {
  static const std::vector<PriorityHeuristic> kAll = {
      PriorityHeuristic::kAlapEdf, PriorityHeuristic::kBLevel,
      PriorityHeuristic::kDeadlineMonotonic, PriorityHeuristic::kArrivalOrder};
  return kAll;
}

std::vector<Duration> b_levels(const TaskGraph& tg) {
  const auto order = tg.topological_order();
  if (!order.has_value()) {
    throw std::invalid_argument("b_levels: task graph is cyclic");
  }
  std::vector<Duration> level(tg.job_count());
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const JobId i = *it;
    Duration best;
    for (const JobId j : tg.successors(i)) {
      best = std::max(best, level[j.value()]);
    }
    level[i.value()] = best + tg.job(i).wcet;
  }
  return level;
}

std::vector<JobId> schedule_priority(const TaskGraph& tg, PriorityHeuristic heuristic) {
  const std::size_t n = tg.job_count();
  std::vector<JobId> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = JobId(i);
  }
  const auto tie = [&tg](JobId a, JobId b) {
    const Job& ja = tg.job(a);
    const Job& jb = tg.job(b);
    if (ja.arrival != jb.arrival) {
      return ja.arrival < jb.arrival;
    }
    return a < b;
  };
  switch (heuristic) {
    case PriorityHeuristic::kAlapEdf: {
      const auto alap = alap_times(tg);
      std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
        if (alap[a.value()] != alap[b.value()]) {
          return alap[a.value()] < alap[b.value()];
        }
        return tie(a, b);
      });
      break;
    }
    case PriorityHeuristic::kBLevel: {
      const auto levels = b_levels(tg);
      std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
        if (levels[a.value()] != levels[b.value()]) {
          return levels[a.value()] > levels[b.value()];  // longer path first
        }
        return tie(a, b);
      });
      break;
    }
    case PriorityHeuristic::kDeadlineMonotonic: {
      // D - A once per job, not two Rational subtractions per comparison.
      std::vector<Duration> relative(n);
      for (std::size_t i = 0; i < n; ++i) {
        relative[i] = tg.job(JobId(i)).deadline - tg.job(JobId(i)).arrival;
      }
      std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
        if (relative[a.value()] != relative[b.value()]) {
          return relative[a.value()] < relative[b.value()];
        }
        return tie(a, b);
      });
      break;
    }
    case PriorityHeuristic::kArrivalOrder: {
      std::sort(order.begin(), order.end(), tie);
      break;
    }
  }
  return order;
}

}  // namespace fppn
