#include "sched/priorities.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

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

std::optional<std::vector<JobId>> schedule_priority(const CompiledTaskGraph& view,
                                                   PriorityHeuristic heuristic) {
  if (!view.has_ticks() || !view.is_acyclic()) {
    return std::nullopt;
  }
  const std::size_t n = view.job_count();
  const std::vector<std::int64_t>& arrival = view.arrival_ticks();
  const std::vector<std::int64_t>& deadline = view.deadline_ticks();
  const std::vector<std::int64_t>& wcet = view.wcet_ticks();
  const std::vector<std::uint32_t>& succ_offsets = view.succ_offsets();
  const std::vector<std::uint32_t>& succ_ids = view.succ_ids();
  const std::vector<std::uint32_t>& topo = view.topological_order();

  // key[i] sorts ascending: the first-order key of each heuristic, with
  // the b-level negated so that the longer path comes first.
  std::vector<std::int64_t> key(n);
  switch (heuristic) {
    case PriorityHeuristic::kAlapEdf:
      // D'_i = min(D_i, min over successors j of D'_j - C_j).
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const std::uint32_t i = *it;
        std::int64_t t = deadline[i];
        for (std::uint32_t e = succ_offsets[i]; e < succ_offsets[i + 1]; ++e) {
          const std::uint32_t j = succ_ids[e];
          std::int64_t latest = 0;
          if (__builtin_sub_overflow(key[j], wcet[j], &latest)) {
            return std::nullopt;
          }
          t = std::min(t, latest);
        }
        key[i] = t;
      }
      break;
    case PriorityHeuristic::kBLevel: {
      // level_i = max(0, max over successors j of level_j) + C_i. No
      // overflow: WCETs are >= 0 and a level is at most the total WCET,
      // which compile() bounds by int64 for the view to have ticks.
      std::vector<std::int64_t> level(n);
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const std::uint32_t i = *it;
        std::int64_t best = 0;
        for (std::uint32_t e = succ_offsets[i]; e < succ_offsets[i + 1]; ++e) {
          best = std::max(best, level[succ_ids[e]]);
        }
        level[i] = best + wcet[i];
        key[i] = -level[i];
      }
      break;
    }
    case PriorityHeuristic::kDeadlineMonotonic:
      for (std::size_t i = 0; i < n; ++i) {
        if (__builtin_sub_overflow(deadline[i], arrival[i], &key[i])) {
          return std::nullopt;
        }
      }
      break;
    case PriorityHeuristic::kArrivalOrder:
      key = arrival;
      break;
  }

  // One flat array of (key, arrival, id) triples: the tuple order is the
  // tie-break.
  std::vector<std::tuple<std::int64_t, std::int64_t, std::uint32_t>> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(key[i], arrival[i], static_cast<std::uint32_t>(i));
  }
  std::sort(entries.begin(), entries.end());
  std::vector<JobId> order;
  order.reserve(n);
  for (const auto& entry : entries) {
    order.emplace_back(std::get<2>(entry));
  }
  return order;
}

}  // namespace fppn
