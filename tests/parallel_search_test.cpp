// Parallel schedule search: bit-identical winner selection regardless of
// worker-thread count and cache warmth (memory or disk, same or fresh
// cache instance), never-worse-than-any-single-strategy, the warm-start
// overlay's memo (hits equal a memo-free recompute, the key invalidates),
// concurrent Engine solves, and option validation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "engine/engine.hpp"
#include "gen/rng.hpp"
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
    // Cold and warm see the same warm-start set (the overlay's outcome is
    // cached in the memory tier under a key that captures the set it
    // read, never as a plan entry), so the two runs are bit-identical end
    // to end.
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

/// The paper's reduced-period FMS (812 jobs) with every process WCET
/// raised by k/10 ms, k in 0..9 drawn from `jitter` — the serving
/// benchmark's variant family.
TaskGraph jittered_fms(std::uint64_t jitter) {
  const apps::FmsApp app = apps::build_fms(true);
  WcetMap wcets = app.default_wcets();
  gen::Rng rng(jitter);
  for (auto& entry : wcets) {
    entry.second += Duration::ratio_ms(rng.range(0, 9), 10);
  }
  return derive_task_graph(app.net, wcets).graph;
}

/// The daemon's quick preset on 2 processors, overlay on.
sched::ParallelSearchOptions quick_warm_options(sched::ScheduleCache* cache) {
  sched::ParallelSearchOptions opts;
  opts.processors = 2;
  opts.workers = 1;
  opts.seeds_per_strategy = 1;
  opts.max_iterations = 400;
  opts.restarts = 1;
  opts.cache = cache;
  opts.warm_start = true;
  return opts;
}

/// Bit-for-bit winner equality: strategy, seed, detail, score, every
/// placement and whether the overlay won.
void expect_same_winner(const sched::ParallelSearchResult& a,
                        const sched::ParallelSearchResult& b, std::size_t jobs,
                        const std::string& context) {
  EXPECT_EQ(a.best.strategy, b.best.strategy) << context;
  EXPECT_EQ(a.seed, b.seed) << context;
  EXPECT_EQ(a.best.detail, b.best.detail) << context;
  EXPECT_EQ(a.best.makespan, b.best.makespan) << context;
  EXPECT_EQ(a.best.feasible, b.best.feasible) << context;
  EXPECT_EQ(a.best.deadline_violations, b.best.deadline_violations) << context;
  EXPECT_EQ(a.warm_start_won, b.warm_start_won) << context;
  expect_identical_schedules(a.best.schedule, b.best.schedule, jobs);
}

TEST(ParallelSearch, WarmStartMemoHitMatchesAMemoFreeRecompute) {
  // A repeat solve answers the overlay from its memo: it evaluates no warm
  // candidate (warm_candidates == 0, warm_starts still counts the starts
  // read) and reports the bit-identical winner of a cache that holds the
  // same plan entries but no memo, so it has to run the overlay.
  // Jitter 10 is a variant on which the overlay beats the plan winner, so
  // the memo that keeps a schedule is exercised too.
  int warm_wins = 0;
  for (std::uint64_t jitter = 1; jitter <= 10; ++jitter) {
    const std::string context = "FMS jitter " + std::to_string(jitter);
    const TaskGraph tg = jittered_fms(jitter);

    sched::ScheduleCache memo_cache;
    const sched::ParallelSearchOptions opts = quick_warm_options(&memo_cache);
    const auto cold = sched::parallel_search(tg, opts);
    EXPECT_GT(cold.warm_candidates, 0u) << context;
    const auto hit = sched::parallel_search(tg, opts);
    EXPECT_EQ(hit.evaluated, 0u) << context;
    EXPECT_GT(hit.warm_starts, 0u) << context;
    EXPECT_EQ(hit.warm_starts, cold.warm_starts) << context;
    EXPECT_EQ(hit.warm_candidates, 0u) << context;

    sched::ScheduleCache fresh_cache;
    sched::ParallelSearchOptions plan_only = quick_warm_options(&fresh_cache);
    plan_only.warm_start = false;
    (void)sched::parallel_search(tg, plan_only);
    const auto recompute = sched::parallel_search(tg, quick_warm_options(&fresh_cache));
    EXPECT_EQ(recompute.evaluated, 0u) << context;
    EXPECT_EQ(recompute.warm_candidates, cold.warm_candidates) << context;

    expect_same_winner(hit, recompute, tg.job_count(), context + ", hit vs recompute");
    expect_same_winner(hit, cold, tg.job_count(), context + ", hit vs cold");
    warm_wins += hit.warm_start_won ? 1 : 0;
  }
  EXPECT_GE(warm_wins, 1) << "no variant exercised a memo that keeps its schedule";
}

TEST(ParallelSearch, WarmStartMemoRecomputesWhenThePlanWinnerGotWorse) {
  // The memo keeps a schedule only when it beat the plan winner at store
  // time. A later search whose plan winner is worse (here: a restricted
  // strategy list over the same cached entries, so the same warm-start
  // set and memo key) finds the memo better but without a schedule, and
  // must recompute — with the result a memo-free cache reports.
  const TaskGraph tg = jittered_fms(1);
  sched::ScheduleCache cache;
  const auto full = sched::parallel_search(tg, quick_warm_options(&cache));
  ASSERT_FALSE(full.warm_start_won);
  ASSERT_GT(full.warm_candidates, 0u);

  sched::ParallelSearchOptions narrow = quick_warm_options(&cache);
  narrow.strategies = {"arrival-order"};
  const auto recomputed = sched::parallel_search(tg, narrow);
  EXPECT_EQ(recomputed.evaluated, 0u);
  EXPECT_EQ(recomputed.warm_starts, full.warm_starts);
  EXPECT_GT(recomputed.warm_candidates, 0u);
  EXPECT_TRUE(recomputed.warm_start_won);

  // The recompute stored a memo that keeps the schedule: the next narrow
  // search is a pure hit with the same winner.
  const auto hit = sched::parallel_search(tg, narrow);
  EXPECT_EQ(hit.warm_candidates, 0u);
  expect_same_winner(hit, recomputed, tg.job_count(), "narrow hit vs recompute");

  sched::ScheduleCache fresh;
  sched::ParallelSearchOptions plan_only = quick_warm_options(&fresh);
  plan_only.warm_start = false;
  (void)sched::parallel_search(tg, plan_only);
  sched::ParallelSearchOptions fresh_narrow = narrow;
  fresh_narrow.cache = &fresh;
  const auto reference = sched::parallel_search(tg, fresh_narrow);
  expect_same_winner(recomputed, reference, tg.job_count(), "recompute vs memo-free");
}

TEST(ParallelSearch, NewFeasibleScheduleInvalidatesTheWarmStartMemo) {
  // The memo key digests the warm-start set, so a feasible schedule
  // stored for the fingerprint after the memo changes the key: the next
  // search runs the overlay again over the larger set.
  const TaskGraph tg = jittered_fms(2);
  sched::ScheduleCache cache;
  const sched::ParallelSearchOptions opts = quick_warm_options(&cache);
  const auto cold = sched::parallel_search(tg, opts);
  ASSERT_GT(cold.warm_starts, 0u);
  ASSERT_TRUE(cold.best.feasible);
  ASSERT_EQ(sched::parallel_search(tg, opts).warm_candidates, 0u);

  sched::StrategyOptions other;
  other.processors = opts.processors;
  other.seed = 99;
  other.max_iterations = opts.max_iterations;
  other.restarts = opts.restarts;
  cache.store(sched::make_cache_key(tg, "alap-edf", other), cold.best);

  const auto after = sched::parallel_search(tg, opts);
  EXPECT_EQ(after.evaluated, 0u);
  EXPECT_EQ(after.warm_starts, cold.warm_starts + 1);
  EXPECT_GT(after.warm_candidates, 0u);
  EXPECT_EQ(sched::parallel_search(tg, opts).warm_candidates, 0u);
}

TEST(ParallelSearch, WarmStartMemoKeyCoversSeedsAndBudget) {
  // Over one unchanged warm-start set, the overlay is rerun for any
  // change of the options it forwards to its candidates.
  const TaskGraph tg = jittered_fms(3);
  sched::ScheduleCache cache;
  sched::ParallelSearchOptions plan_only = quick_warm_options(&cache);
  plan_only.warm_start = false;
  const sched::ParallelSearchResult plan = sched::parallel_search(tg, plan_only);

  const auto overlay = [&](const sched::ParallelSearchOptions& opts) {
    sched::ParallelSearchResult result = plan;
    sched::apply_cached_warm_start(tg, opts, result);
    return result;
  };
  const sched::ParallelSearchOptions opts = quick_warm_options(&cache);
  ASSERT_GT(overlay(opts).warm_candidates, 0u);
  const auto hit = overlay(opts);
  ASSERT_GT(hit.warm_starts, 0u);
  ASSERT_EQ(hit.warm_candidates, 0u);

  std::vector<std::pair<std::string, sched::ParallelSearchOptions>> variants;
  variants.emplace_back("seeds_per_strategy", opts);
  variants.back().second.seeds_per_strategy = 2;
  variants.emplace_back("base_seed", opts);
  variants.back().second.base_seed = 5;
  variants.emplace_back("max_iterations", opts);
  variants.back().second.max_iterations = 200;
  variants.emplace_back("restarts", opts);
  variants.back().second.restarts = 2;
  for (const auto& [field, changed] : variants) {
    const auto miss = overlay(changed);
    EXPECT_EQ(miss.warm_starts, hit.warm_starts) << field;
    EXPECT_GT(miss.warm_candidates, 0u) << field;
    EXPECT_EQ(overlay(changed).warm_candidates, 0u) << field;
  }
  EXPECT_EQ(overlay(opts).warm_candidates, 0u) << "original options still memoized";
}

TEST(ParallelSearch, ConcurrentEngineSolvesMatchSerialOneShotSolves) {
  // One Engine with the memory L1 and the overlay on, hammered by 4
  // threads over 4 FMS variants (so threads solve one variant at the same
  // time): every report equals the serial one-shot solve of its variant.
  constexpr std::size_t kVariants = 4;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<TaskGraph> graphs;
  for (std::uint64_t v = 0; v < kVariants; ++v) {
    graphs.push_back(jittered_fms(v + 7));
  }
  engine::SearchConfig config;
  config.processors = 2;
  config.workers = 1;
  config.memory_cache = true;
  config.warm_start = true;
  std::vector<sched::ParallelSearchResult> serial;
  for (const TaskGraph& tg : graphs) {
    serial.push_back(engine::solve_graph(tg, config).search);
  }

  engine::Engine shared;
  std::vector<std::vector<sched::ParallelSearchResult>> reports(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t v = 0; v < kVariants; ++v) {
          engine::SolveRequest request;
          request.graph = &graphs[(static_cast<std::size_t>(t) + v) % kVariants];
          request.config = config;
          reports[static_cast<std::size_t>(t)].push_back(shared.solve(request).search);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(reports[static_cast<std::size_t>(t)].size(), kRounds * kVariants);
    for (std::size_t k = 0; k < reports[static_cast<std::size_t>(t)].size(); ++k) {
      const std::size_t v = (static_cast<std::size_t>(t) + k % kVariants) % kVariants;
      expect_same_winner(reports[static_cast<std::size_t>(t)][k], serial[v],
                         graphs[v].job_count(),
                         "thread " + std::to_string(t) + ", solve " + std::to_string(k));
    }
  }
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
