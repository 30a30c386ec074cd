// Parallel schedule search: bit-identical winner selection regardless of
// worker-thread count and cache warmth (memory or disk, same or fresh
// cache instance), never-worse-than-any-single-strategy, and option
// validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <random>

#include "apps/fig1.hpp"
#include "gen/scenario.hpp"
#include "sched/parallel_search.hpp"
#include "sched/registry.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

/// Random layered DAG from the shared gen:: family (the same generator
/// the fuzz loop and the evaluator differential suite draw from).
TaskGraph random_task_graph(std::uint64_t seed) {
  return gen::layered_task_graph(seed);
}

/// Full placement equality: same processor and start time for every job.
void expect_identical_schedules(const StaticSchedule& a, const StaticSchedule& b,
                                std::size_t jobs) {
  ASSERT_EQ(a.job_count(), jobs);
  ASSERT_EQ(b.job_count(), jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    const JobId id{i};
    ASSERT_TRUE(a.is_placed(id));
    ASSERT_TRUE(b.is_placed(id));
    EXPECT_EQ(a.placement(id).processor, b.placement(id).processor) << "job " << i;
    EXPECT_EQ(a.placement(id).start, b.placement(id).start) << "job " << i;
  }
}

sched::ParallelSearchOptions base_options(std::int64_t processors) {
  sched::ParallelSearchOptions opts;
  opts.processors = processors;
  opts.seeds_per_strategy = 3;
  opts.max_iterations = 300;
  opts.restarts = 1;
  return opts;
}

TEST(ParallelSearch, DeterministicAcrossWorkerCounts) {
  // Acceptance criterion: the chosen schedule is bit-identical whether the
  // search runs on 1, 2 or 8 workers.
  for (const std::uint64_t graph_seed : {0ULL, 7ULL, 13ULL}) {
    const TaskGraph tg = random_task_graph(graph_seed);
    sched::ParallelSearchOptions opts = base_options(3);
    opts.workers = 1;
    const auto one = sched::parallel_search(tg, opts);
    for (const int workers : {2, 8}) {
      opts.workers = workers;
      const auto many = sched::parallel_search(tg, opts);
      EXPECT_EQ(many.best.strategy, one.best.strategy) << "graph seed " << graph_seed;
      EXPECT_EQ(many.seed, one.seed) << "graph seed " << graph_seed;
      EXPECT_EQ(many.best.makespan, one.best.makespan) << "graph seed " << graph_seed;
      EXPECT_EQ(many.best.deadline_violations, one.best.deadline_violations);
      expect_identical_schedules(many.best.schedule, one.best.schedule, tg.job_count());
    }
  }
}

TEST(ParallelSearch, RepeatedCallsAreIdentical) {
  const TaskGraph tg = random_task_graph(3);
  const auto a = sched::parallel_search(tg, base_options(3));
  const auto b = sched::parallel_search(tg, base_options(3));
  EXPECT_EQ(a.best.strategy, b.best.strategy);
  EXPECT_EQ(a.seed, b.seed);
  expect_identical_schedules(a.best.schedule, b.best.schedule, tg.job_count());
}

TEST(ParallelSearch, NeverWorseThanAnySingleStrategy) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto result = sched::parallel_search(derived.graph, base_options(2));
  auto& registry = sched::StrategyRegistry::global();
  for (const std::string& name : registry.names()) {
    sched::StrategyOptions sopts;
    sopts.processors = 2;
    sopts.max_iterations = 300;
    sopts.restarts = 1;
    const auto single = registry.create(name)->schedule(derived.graph, sopts);
    // Lexicographic objective: violations first, then makespan.
    EXPECT_LE(result.best.deadline_violations, single.deadline_violations) << name;
    if (result.best.deadline_violations == single.deadline_violations) {
      EXPECT_LE(result.best.makespan, single.makespan) << name;
    }
  }
}

TEST(ParallelSearch, FindsFeasibleFig1ScheduleOnTwoProcessors) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto result = sched::parallel_search(derived.graph, base_options(2));
  EXPECT_TRUE(result.best.feasible);
  EXPECT_EQ(result.best.deadline_violations, 0u);
  // 4 non-seedable heuristics + 3 seeds each of local-search and
  // partitioned-wfd.
  EXPECT_EQ(result.candidates, 10u);
}

TEST(ParallelSearch, HonorsRestrictedStrategyList) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::ParallelSearchOptions opts = base_options(2);
  opts.strategies = {"b-level"};
  const auto result = sched::parallel_search(derived.graph, opts);
  EXPECT_EQ(result.best.strategy, "b-level");
  EXPECT_EQ(result.candidates, 1u);
}

TEST(ParallelSearch, UnknownStrategyThrowsBeforeSearching) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::ParallelSearchOptions opts = base_options(2);
  opts.strategies = {"alap-edf", "definitely-not-registered"};
  EXPECT_THROW((void)sched::parallel_search(derived.graph, opts),
               sched::UnknownStrategyError);
}

/// User strategy that returns a partial schedule: no placements at all, so
/// its only violations are kUnscheduled (zero *deadline* violations) and
/// its makespan is minimal. It must never beat a feasible candidate.
class BrokenStrategy final : public sched::SchedulerStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "aaa-broken"; }
  [[nodiscard]] std::string description() const override { return "partial schedule"; }
  [[nodiscard]] sched::StrategyResult schedule(
      const TaskGraph& tg, const sched::StrategyOptions& opts) const override {
    sched::StrategyResult result;
    result.strategy = name();
    result.detail = "leaves every job unplaced";
    result.schedule = StaticSchedule(tg.job_count(), opts.processors);
    sched::finalize_result(tg, result);
    return result;
  }
};

TEST(ParallelSearch, FeasibleCandidateOutranksInfeasiblePartialSchedule) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyRegistry registry;
  sched::register_builtin_strategies(registry);
  // "aaa-broken" sorts first, has zero deadline violations and a zero
  // makespan — it wins every tie-break except the feasibility rank.
  registry.add("aaa-broken", [] { return std::make_unique<BrokenStrategy>(); });
  const auto result = sched::parallel_search(derived.graph, base_options(2), registry);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_NE(result.best.strategy, "aaa-broken");
}

/// User strategy that always throws, to exercise the worker pool's
/// error path.
class ThrowingStrategy final : public sched::SchedulerStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "aaa-throws"; }
  [[nodiscard]] std::string description() const override { return "always throws"; }
  [[nodiscard]] sched::StrategyResult schedule(
      const TaskGraph&, const sched::StrategyOptions&) const override {
    throw std::runtime_error("strategy exploded mid-search");
  }
};

TEST(ParallelSearch, StrategyThrowMidSearchSurfacesFirstError) {
  // A registered strategy that throws must surface its exception on the
  // calling thread — not hang the pool, and not return a partial winner.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyRegistry registry;
  sched::register_builtin_strategies(registry);
  registry.add("aaa-throws", [] { return std::make_unique<ThrowingStrategy>(); });
  for (const int workers : {1, 4}) {
    sched::ParallelSearchOptions opts = base_options(2);
    opts.workers = workers;
    try {
      (void)sched::parallel_search(derived.graph, opts, registry);
      FAIL() << "expected the strategy's exception with " << workers << " worker(s)";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "strategy exploded mid-search") << workers << " worker(s)";
    }
  }
}

TEST(ParallelSearch, RanksMakespansNearInt64OverflowWithoutThrowing) {
  // Rational makespan tie-breaking must stay total at the rt/rational
  // overflow guard: comparing e.g. (2^63-1)/3 against (2^63-3)/2 would
  // overflow 64-bit cross products (coprime denominators give gcd no
  // leverage), and a throw here would kill the whole search.
  // 2^63-1 is coprime to 3 and 2^63-3 is odd, so neither rational
  // reduces: both cross products genuinely exceed int64.
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  sched::StrategyResult a;
  a.strategy = "x";
  a.feasible = true;
  a.makespan = Time(Rational(huge, 3));
  sched::StrategyResult b = a;
  b.strategy = "y";
  b.makespan = Time(Rational(huge - 2, 2));

  bool a_wins = false;
  EXPECT_NO_THROW(a_wins = sched::better_search_candidate(a, 1, b, 1));
  EXPECT_TRUE(a_wins);  // huge/3 < (huge-2)/2
  EXPECT_FALSE(sched::better_search_candidate(b, 1, a, 1));

  // Equal violations and makespans fall through to the name tie-break
  // without touching rational arithmetic.
  b.makespan = a.makespan;
  EXPECT_TRUE(sched::better_search_candidate(a, 1, b, 1));  // "x" < "y"
}

TEST(ParallelSearch, ColdVsWarmCachePickBitIdenticalWinner) {
  // Acceptance criterion: a warm-cache search on a repeated graph
  // evaluates 0 candidates yet returns the bit-identical winner of the
  // cold run — on any worker count, and also when the warm run opens the
  // cold run's disk directory through a fresh ScheduleCache instance, as
  // a later fppn_tool process does.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fppn_cold_warm_" + std::to_string(::getpid())))
          .string();
  for (const std::uint64_t graph_seed : {0ULL, 7ULL}) {
    for (const bool on_disk : {false, true}) {
      const std::string context = "graph seed " + std::to_string(graph_seed) +
                                  (on_disk ? ", disk cache" : ", memory cache");
      const TaskGraph tg = random_task_graph(graph_seed);
      std::filesystem::remove_all(dir);
      const auto open_cache = [&] {
        return on_disk ? std::make_unique<sched::ScheduleCache>(dir)
                       : std::make_unique<sched::ScheduleCache>();
      };
      const std::unique_ptr<sched::ScheduleCache> cache = open_cache();
      sched::ParallelSearchOptions opts = base_options(3);
      opts.cache = cache.get();

      const auto cold = sched::parallel_search(tg, opts);
      EXPECT_EQ(cold.evaluated, cold.candidates) << context;
      EXPECT_EQ(cold.cache_hits, 0u) << context;

      for (const int workers : {1, 4}) {
        const std::unique_ptr<sched::ScheduleCache> fresh =
            on_disk ? open_cache() : nullptr;
        opts.cache = fresh != nullptr ? fresh.get() : cache.get();
        opts.workers = workers;
        const auto warm = sched::parallel_search(tg, opts);
        const std::string where = context + ", " + std::to_string(workers) + " worker(s)";
        EXPECT_EQ(warm.evaluated, 0u) << where;
        EXPECT_EQ(warm.cache_hits, warm.candidates) << where;
        EXPECT_EQ(warm.candidates, cold.candidates) << where;

        EXPECT_EQ(warm.best.strategy, cold.best.strategy) << where;
        EXPECT_EQ(warm.seed, cold.seed) << where;
        EXPECT_EQ(warm.best.detail, cold.best.detail) << where;
        EXPECT_EQ(warm.best.makespan, cold.best.makespan) << where;
        EXPECT_EQ(warm.best.deadline_violations, cold.best.deadline_violations) << where;
        EXPECT_EQ(warm.best.feasible, cold.best.feasible) << where;
        expect_identical_schedules(warm.best.schedule, cold.best.schedule,
                                   tg.job_count());
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ParallelSearch, CacheMatchesUncachedWinner) {
  // Attaching a cache must not change the search outcome at all.
  const TaskGraph tg = random_task_graph(11);
  const auto plain = sched::parallel_search(tg, base_options(3));
  sched::ScheduleCache cache;
  sched::ParallelSearchOptions opts = base_options(3);
  opts.cache = &cache;
  const auto cached = sched::parallel_search(tg, opts);
  EXPECT_EQ(cached.best.strategy, plain.best.strategy);
  EXPECT_EQ(cached.seed, plain.seed);
  expect_identical_schedules(cached.best.schedule, plain.best.schedule, tg.job_count());
}

TEST(ParallelSearch, CacheIsPerGraphNotGlobal) {
  // A warm cache for one graph must not satisfy a different graph: the
  // fingerprint in the key separates them.
  sched::ScheduleCache cache;
  sched::ParallelSearchOptions opts = base_options(3);
  opts.cache = &cache;
  const TaskGraph a = random_task_graph(1);
  const TaskGraph b = random_task_graph(2);
  (void)sched::parallel_search(a, opts);
  const auto fresh = sched::parallel_search(b, opts);
  EXPECT_EQ(fresh.cache_hits, 0u);
  EXPECT_EQ(fresh.evaluated, fresh.candidates);
}

TEST(ParallelSearch, BudgetChangeMissesTheCache) {
  // max_iterations/restarts are part of the key: a bigger budget may find
  // a different schedule, so it must not reuse small-budget entries.
  const TaskGraph tg = random_task_graph(4);
  sched::ScheduleCache cache;
  sched::ParallelSearchOptions opts = base_options(3);
  opts.cache = &cache;
  (void)sched::parallel_search(tg, opts);
  opts.max_iterations = opts.max_iterations * 2;
  const auto rerun = sched::parallel_search(tg, opts);
  EXPECT_EQ(rerun.cache_hits, 0u);
}

TEST(ParallelSearch, CachedWarmStartIsNotAPlanCandidate) {
  // "cached-warm-start" depends on cache contents, so the deterministic
  // candidate matrix must never contain it implicitly — it joins through
  // the overlay. Naming it explicitly still works (degenerates to plain
  // local search).
  sched::ParallelSearchOptions opts = base_options(2);
  for (const sched::SearchCandidate& c : sched::enumerate_search_candidates(opts)) {
    EXPECT_NE(c.strategy, "cached-warm-start");
  }
  opts.strategies = {"cached-warm-start"};
  const auto explicit_candidates = sched::enumerate_search_candidates(opts);
  EXPECT_EQ(explicit_candidates.size(), 3u);  // seedable: seeds_per_strategy
  EXPECT_EQ(explicit_candidates[0].strategy, "cached-warm-start");
}

TEST(ParallelSearch, WarmStartOverlayMatchesOrBeatsTheColdWinner) {
  // The acceptance contract of the warm-start overlay: against the same
  // cache, a warm rerun either reports the bit-identical winner of the
  // cold run or a strictly better schedule — never a different-but-equal
  // winner and never a worse one.
  for (const std::uint64_t graph_seed : {0ULL, 7ULL, 13ULL}) {
    const TaskGraph tg = random_task_graph(graph_seed);
    const auto plain = sched::parallel_search(tg, base_options(3));

    sched::ScheduleCache cache;
    sched::ParallelSearchOptions opts = base_options(3);
    opts.cache = &cache;
    opts.warm_start = true;
    const auto cold = sched::parallel_search(tg, opts);
    const auto warm = sched::parallel_search(tg, opts);

    // Never worse than the plain (no-cache, no-overlay) winner.
    for (const auto* run : {&cold, &warm}) {
      EXPECT_GE(run->best.feasible, plain.best.feasible);
      EXPECT_LE(run->best.deadline_violations, plain.best.deadline_violations);
      if (run->best.feasible == plain.best.feasible &&
          run->best.deadline_violations == plain.best.deadline_violations) {
        EXPECT_LE(run->best.makespan, plain.best.makespan);
      }
      if (!run->warm_start_won) {
        // Match: the plan winner survived the overlay bit-identically.
        EXPECT_EQ(run->best.strategy, plain.best.strategy);
        EXPECT_EQ(run->seed, plain.seed);
        expect_identical_schedules(run->best.schedule, plain.best.schedule,
                                   tg.job_count());
      } else {
        EXPECT_EQ(run->best.strategy, "cached-warm-start");
      }
    }
    // Cold and warm see the same cache contents (warm-start results are
    // never stored), so the two runs are bit-identical end to end.
    EXPECT_EQ(warm.best.strategy, cold.best.strategy);
    EXPECT_EQ(warm.seed, cold.seed);
    EXPECT_EQ(warm.best.detail, cold.best.detail);
    EXPECT_EQ(warm.warm_start_won, cold.warm_start_won);
    EXPECT_EQ(warm.evaluated, 0u);
    expect_identical_schedules(warm.best.schedule, cold.best.schedule, tg.job_count());
  }
}

TEST(ParallelSearch, WarmVsColdBitIdenticalWinnerWithEvictionOn) {
  // Acceptance criterion: with a size-bounded disk cache, a warm rerun
  // still reports the identical winner of the cold cached run, and the
  // directory never exceeds the bound.
  const TaskGraph tg = random_task_graph(7);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fppn_warm_evict_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const std::size_t bound = 12;  // >= the 10-candidate matrix

  sched::ParallelSearchOptions opts = base_options(3);
  opts.warm_start = true;
  sched::ScheduleCache cold_cache(dir, bound);
  opts.cache = &cold_cache;
  const auto cold = sched::parallel_search(tg, opts);

  sched::ScheduleCache warm_cache(dir, bound);
  opts.cache = &warm_cache;
  const auto warm = sched::parallel_search(tg, opts);

  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    entries += e.path().extension() == ".sched" ? 1 : 0;
  }
  EXPECT_LE(entries, bound);
  EXPECT_EQ(warm.evaluated, 0u);
  EXPECT_EQ(warm.cache_hits, warm.candidates);
  EXPECT_EQ(warm.best.strategy, cold.best.strategy);
  EXPECT_EQ(warm.seed, cold.seed);
  EXPECT_EQ(warm.best.detail, cold.best.detail);
  EXPECT_EQ(warm.best.makespan, cold.best.makespan);
  expect_identical_schedules(warm.best.schedule, cold.best.schedule, tg.job_count());
  std::filesystem::remove_all(dir);
}

TEST(ParallelSearch, RejectsBadOptions) {
  const TaskGraph tg = random_task_graph(1);
  sched::ParallelSearchOptions opts = base_options(0);
  EXPECT_THROW((void)sched::parallel_search(tg, opts), std::invalid_argument);
  opts = base_options(2);
  opts.seeds_per_strategy = 0;
  EXPECT_THROW((void)sched::parallel_search(tg, opts), std::invalid_argument);
}

}  // namespace
}  // namespace fppn
