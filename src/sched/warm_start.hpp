// Warm-start reuse: cached feasible schedules fed back into the
// local-search SP optimizer as start points, so every search over a graph
// the cache has seen before resumes from the best schedule known so far
// instead of rediscovering it (the cache as a learning substrate, not
// just a memo table).
//
// Pieces:
//
//   priority_order_from_schedule   recovers the SP total order a schedule
//                                  encodes (start time, then processor,
//                                  then job index) — the bridge from a
//                                  cached StaticSchedule back into
//                                  optimize_priority's search space
//   CachedWarmStartStrategy        "cached-warm-start" in the registry:
//                                  local search seeded with the warm
//                                  starts in StrategyOptions::warm_starts
//                                  (without them it degenerates to plain
//                                  "local-search")
//   collect_warm_starts            pulls every cached feasible schedule
//                                  for a fingerprint out of a
//                                  ScheduleCache as priority orders
//   warm_start_digest              128-bit digest of that ordered set —
//                                  the part of the overlay memo's key
//                                  that captures the cache contents
//
// Determinism: all three are deterministic in their inputs; what varies
// is the cache *contents*, so a warm-started result may legitimately
// differ from a cold one — always by being better, never worse (the
// search starts from the best of heuristics ∪ warm starts and only
// accepts improvements). parallel_search's overlay keeps the winner
// contract tight: a warm-start candidate replaces the cold winner only
// when strictly better on (feasibility, violations, makespan), so a warm
// rerun either matches the cold winner bit-identically or beats it —
// never a different-but-equal winner. Warm-start results are cached in
// the memory tier under a key that captures the warm-start set they read
// (WarmStartKey in sched/schedule_cache.hpp), never in the plan's
// entries, so they never feed a later warm-start set.
//
// Thread safety: everything here is stateless or reads through
// ScheduleCache's internal lock; safe to call concurrently.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sched/schedule_cache.hpp"
#include "sched/strategy.hpp"

namespace fppn {
namespace sched {

/// The SP total order `schedule` encodes: jobs sorted by start time, ties
/// by processor then job index; unplaced jobs go last in index order (so
/// partial schedules still yield a valid permutation). Deterministic.
/// Throws std::invalid_argument when the schedule cannot index tg's jobs.
[[nodiscard]] std::vector<JobId> priority_order_from_schedule(
    const TaskGraph& tg, const StaticSchedule& schedule);

/// Every cached feasible schedule for `graph_fingerprint`
/// (ScheduleCache::feasible_schedules) as a priority order, in the
/// cache's deterministic entry order. The warm-start feed of
/// parallel_search.
[[nodiscard]] std::vector<std::vector<JobId>> collect_warm_starts(
    ScheduleCache& cache, std::uint64_t graph_fingerprint, const TaskGraph& tg);

/// Digest of an ordered warm-start set (collect_warm_starts' output): two
/// independent 64-bit mixes over the set size, each order's length and
/// its job ids, in order. Collision odds sit below the 2^-64 the cache
/// already accepts for graph identity. Deterministic; never throws.
[[nodiscard]] std::array<std::uint64_t, 2> warm_start_digest(
    const std::vector<std::vector<JobId>>& starts) noexcept;

/// "cached-warm-start": optimize_priority seeded with
/// StrategyOptions::warm_starts on top of the plain heuristics. With no
/// warm starts (e.g. `fppn_tool --strategy cached-warm-start` outside a
/// warm-start overlay) it behaves exactly like "local-search" for the
/// same options. Seedable; never worse than the best plain heuristic,
/// and never worse than any of its start points.
class CachedWarmStartStrategy final : public SchedulerStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "cached-warm-start"; }
  [[nodiscard]] std::string description() const override {
    return "local search warm-started from cached feasible schedules";
  }
  [[nodiscard]] bool seedable() const override { return true; }

  [[nodiscard]] StrategyResult schedule(const TaskGraph& tg,
                                        const StrategyOptions& opts) const override;
};

}  // namespace sched
}  // namespace fppn
