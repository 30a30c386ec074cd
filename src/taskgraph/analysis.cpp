#include "taskgraph/analysis.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace fppn {

std::vector<Time> asap_times(const TaskGraph& tg) {
  const auto order = tg.topological_order();
  if (!order.has_value()) {
    throw std::invalid_argument("asap_times: task graph is cyclic");
  }
  std::vector<Time> asap(tg.job_count());
  for (const JobId i : *order) {
    Time t = tg.job(i).arrival;
    for (const JobId j : tg.predecessors(i)) {
      t = std::max(t, asap[j.value()] + tg.job(j).wcet);
    }
    asap[i.value()] = t;
  }
  return asap;
}

std::vector<Time> alap_times(const TaskGraph& tg) {
  const auto order = tg.topological_order();
  if (!order.has_value()) {
    throw std::invalid_argument("alap_times: task graph is cyclic");
  }
  std::vector<Time> alap(tg.job_count());
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const JobId i = *it;
    Time t = tg.job(i).deadline;
    for (const JobId j : tg.successors(i)) {
      t = std::min(t, alap[j.value()] - tg.job(j).wcet);
    }
    alap[i.value()] = t;
  }
  return alap;
}

LoadResult task_graph_load(const TaskGraph& tg) {
  return task_graph_load(tg, asap_times(tg), alap_times(tg));
}

LoadResult task_graph_load(const TaskGraph& tg, const std::vector<Time>& asap,
                           const std::vector<Time>& alap) {
  LoadResult result;
  result.load = Rational(0);
  const std::size_t n = tg.job_count();
  if (n == 0) {
    return result;
  }
  // Candidate t1: distinct A' values; candidate t2: distinct D' values.
  // For each t1, sort eligible jobs by D' and sweep t2 upward accumulating
  // work; density sum/(t2-t1) is evaluated at each distinct t2.
  std::set<Time> starts(asap.begin(), asap.end());
  struct ByAlap {
    Time alap;
    Duration wcet;
  };
  for (const Time& t1 : starts) {
    std::vector<ByAlap> eligible;
    eligible.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (asap[i] >= t1) {
        eligible.push_back(ByAlap{alap[i], tg.job(JobId{i}).wcet});
      }
    }
    std::sort(eligible.begin(), eligible.end(),
              [](const ByAlap& a, const ByAlap& b) { return a.alap < b.alap; });
    Duration work;
    for (std::size_t i = 0; i < eligible.size(); ++i) {
      work += eligible[i].wcet;
      // Only evaluate at the last job sharing this D' (the full window).
      if (i + 1 < eligible.size() && eligible[i + 1].alap == eligible[i].alap) {
        continue;
      }
      const Time t2 = eligible[i].alap;
      if (t2 <= t1) {
        continue;
      }
      const Rational density = work.value() / (t2 - t1).value();
      if (density > result.load) {
        result.load = density;
        result.window_start = t1;
        result.window_end = t2;
        result.window_work = work;
      }
    }
  }
  return result;
}

NecessaryCondition check_necessary_condition(const TaskGraph& tg,
                                             std::int64_t processors) {
  NecessaryCondition nc;
  const auto asap = asap_times(tg);
  const auto alap = alap_times(tg);
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    if (asap[i] + tg.job(JobId{i}).wcet > alap[i]) {
      nc.window_fit = false;
      nc.first_unfit_job = JobId{i};
      break;
    }
  }
  nc.load = task_graph_load(tg, asap, alap);
  nc.load_fits = nc.load.min_processors() <= processors;
  return nc;
}

}  // namespace fppn
