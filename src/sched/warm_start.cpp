#include "sched/warm_start.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "sched/local_search.hpp"

namespace fppn {
namespace sched {

std::vector<JobId> priority_order_from_schedule(const TaskGraph& tg,
                                                const StaticSchedule& schedule) {
  if (schedule.job_count() != tg.job_count()) {
    throw std::invalid_argument(
        "priority_order_from_schedule: schedule covers " +
        std::to_string(schedule.job_count()) + " job(s), graph has " +
        std::to_string(tg.job_count()));
  }
  std::vector<JobId> placed;
  std::vector<JobId> unplaced;
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const JobId id(i);
    (schedule.is_placed(id) ? placed : unplaced).push_back(id);
  }
  std::sort(placed.begin(), placed.end(), [&](const JobId& a, const JobId& b) {
    const Placement& pa = schedule.placement(a);
    const Placement& pb = schedule.placement(b);
    return std::make_tuple(pa.start, pa.processor.value(), a.value()) <
           std::make_tuple(pb.start, pb.processor.value(), b.value());
  });
  placed.insert(placed.end(), unplaced.begin(), unplaced.end());
  return placed;
}

std::vector<std::vector<JobId>> collect_warm_starts(ScheduleCache& cache,
                                                    std::uint64_t graph_fingerprint,
                                                    const TaskGraph& tg) {
  std::vector<std::vector<JobId>> starts;
  for (const StaticSchedule& s : cache.feasible_schedules(graph_fingerprint, tg)) {
    starts.push_back(priority_order_from_schedule(tg, s));
  }
  return starts;
}

std::array<std::uint64_t, 2> warm_start_digest(
    const std::vector<std::vector<JobId>>& starts) noexcept {
  // Lane 0: FNV-1a's multiply per word, with an xorshift so high bits
  // feed back into low ones. Lane 1: a splitmix64 chain. The lanes share
  // no constants, so a collision has to defeat both at once.
  std::uint64_t fnv = 14695981039346656037ULL;
  std::uint64_t chain = 0x243F6A8885A308D3ULL;
  const auto absorb = [&](std::uint64_t word) {
    fnv = (fnv ^ word) * 1099511628211ULL;
    fnv ^= fnv >> 29;
    std::uint64_t x = chain ^ word;
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    chain = x ^ (x >> 31);
  };
  absorb(starts.size());
  for (const std::vector<JobId>& order : starts) {
    absorb(order.size());
    for (const JobId& job : order) {
      absorb(job.value());
    }
  }
  return {fnv, chain};
}

StrategyResult CachedWarmStartStrategy::schedule(const TaskGraph& tg,
                                                 const StrategyOptions& opts) const {
  LocalSearchResult ls_result = optimize_priority(tg, opts);

  StrategyResult result;
  result.strategy = name();
  result.detail =
      "warm-started local search from " +
      (ls_result.start_priority_index >= 0
           ? "cached schedule " + std::to_string(ls_result.start_priority_index)
           : to_string(ls_result.start_heuristic)) +
      " (" + std::to_string(opts.warm_starts.size()) + " warm start(s)), " +
      std::to_string(ls_result.iterations_used) + " iterations";
  result.schedule = std::move(ls_result.schedule);
  finalize_result(tg, result);
  return result;
}

}  // namespace sched
}  // namespace fppn
