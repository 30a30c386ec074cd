// Parallel schedule search: bit-identical winner selection regardless of
// worker-thread count, cache warmth (memory or disk, same or fresh cache
// instance) and cache contents (entries of other options, an earlier
// process's directory), never-worse-than-any-single-strategy, concurrent
// Engine solves, and option validation.
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
#include "testing/reference_search.hpp"
#include "graph_families.hpp"

namespace fppn {
namespace {

/// Random layered DAG from the shared test family (the same generator
/// the evaluator differential suite draws from).
TaskGraph random_task_graph(std::uint64_t seed) {
  return testing::layered_task_graph(seed);
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

TEST(ParallelSearch, EvaluationCountsAreIndependentOfWorkerCount) {
  // Candidates share no scoring state, so the evaluation accounting is a
  // pure function of (graph, options), like the winner.
  for (const std::uint64_t graph_seed : {0ULL, 7ULL, 13ULL}) {
    const TaskGraph tg = random_task_graph(graph_seed);
    sched::ParallelSearchOptions opts = base_options(2);
    opts.workers = 1;
    const auto one = sched::parallel_search(tg, opts);
    EXPECT_GT(one.evals_incremental, 0u) << "graph seed " << graph_seed;
    EXPECT_EQ(one.visited_skips, 0u) << "graph seed " << graph_seed;
    for (const int workers : {2, 4}) {
      opts.workers = workers;
      const auto many = sched::parallel_search(tg, opts);
      const std::string where =
          "graph seed " + std::to_string(graph_seed) + ", " + std::to_string(workers) + " workers";
      EXPECT_EQ(many.evals_full, one.evals_full) << where;
      EXPECT_EQ(many.evals_incremental, one.evals_incremental) << where;
      EXPECT_EQ(many.evals_spliced, one.evals_spliced) << where;
      EXPECT_EQ(many.visited_skips, 0u) << where;
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
      const sched::SearchContext& ctx, const sched::StrategyOptions& opts) const override {
    sched::StrategyResult result;
    result.strategy = name();
    result.detail = "leaves every job unplaced";
    result.schedule = StaticSchedule(ctx.graph().job_count(), opts.processors);
    sched::finalize_result(ctx.graph(), result);
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
      const sched::SearchContext&, const sched::StrategyOptions&) const override {
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
  // No strategy depends on cache contents: "cached-warm-start" is not
  // registered, so the plan never names it and naming it throws.
  sched::ParallelSearchOptions opts = base_options(2);
  for (const sched::SearchCandidate& c : sched::enumerate_search_candidates(opts)) {
    EXPECT_NE(c.strategy, "cached-warm-start");
  }
  opts.strategies = {"cached-warm-start"};
  EXPECT_THROW((void)sched::enumerate_search_candidates(opts), sched::UnknownStrategyError);
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

/// Bit-for-bit winner equality: strategy, seed, detail, score and every
/// placement.
void expect_same_winner(const sched::ParallelSearchResult& a,
                        const sched::ParallelSearchResult& b, std::size_t jobs,
                        const std::string& context) {
  EXPECT_EQ(a.best.strategy, b.best.strategy) << context;
  EXPECT_EQ(a.seed, b.seed) << context;
  EXPECT_EQ(a.best.detail, b.best.detail) << context;
  EXPECT_EQ(a.best.makespan, b.best.makespan) << context;
  EXPECT_EQ(a.best.feasible, b.best.feasible) << context;
  EXPECT_EQ(a.best.deadline_violations, b.best.deadline_violations) << context;
  expect_identical_schedules(a.best.schedule, b.best.schedule, jobs);
}

/// The cache-contents suite's graphs: the FMS, fig1 and two seeds of
/// every generated family, by name.
std::vector<std::pair<std::string, TaskGraph>> contract_graphs() {
  std::vector<std::pair<std::string, TaskGraph>> graphs;
  const apps::FmsApp fms = apps::build_fms(true);
  graphs.emplace_back("fms", derive_task_graph(fms.net, fms.default_wcets()).graph);
  const apps::Fig1App fig1 = apps::build_fig1();
  graphs.emplace_back("fig1", derive_task_graph(fig1.net, fig1.fig3_wcets()).graph);
  for (const gen::Family family : gen::all_families()) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      graphs.emplace_back(s.name, derive_task_graph(s.net, s.wcets).graph);
    }
  }
  return graphs;
}

TEST(ParallelSearch, WinnerIsIndependentOfCacheContents) {
  // The cache is a pure memo. A quick-preset solve against a cache that
  // already holds schedules of other options for the same graph (the
  // optimize preset, another seed), feasible ones among them, picks the
  // cacheless reference winner: in the Engine's memory L1, and from a
  // directory an earlier Engine (a ScheduleCache of its own) wrote.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fppn_cache_contents_" + std::to_string(::getpid())))
          .string();
  engine::SearchConfig quick;
  quick.processors = 2;
  quick.workers = 2;
  std::vector<engine::SearchConfig> others(2, quick);
  others[0].optimize = true;
  others[1].seed = 5;
  std::size_t feasible_fills = 0;
  for (const auto& [name, tg] : contract_graphs()) {
    const sched::ParallelSearchResult reference =
        testing::reference_search(tg, quick.search_options());
    for (const bool on_disk : {false, true}) {
      const std::string context = name + (on_disk ? ", disk cache" : ", memory cache");
      std::filesystem::remove_all(dir);
      const auto solve = [&](engine::Engine& engine, engine::SearchConfig config) {
        if (on_disk) {
          config.cache_dir = dir;
        } else {
          config.memory_cache = true;
        }
        engine::SolveRequest request;
        request.graph = &tg;
        request.config = config;
        return engine.solve(request).search;
      };
      engine::Engine filler;
      for (const engine::SearchConfig& other : others) {
        feasible_fills += solve(filler, other).best.feasible ? 1 : 0;
      }
      engine::Engine later;
      const sched::ParallelSearchResult got = solve(on_disk ? later : filler, quick);
      EXPECT_EQ(got.evaluated, got.candidates) << context << ": no quick entry was cached";
      EXPECT_EQ(got.best.strategy, reference.best.strategy) << context;
      EXPECT_EQ(got.seed, reference.seed) << context;
      EXPECT_EQ(got.best.makespan, reference.best.makespan) << context;
      EXPECT_EQ(got.best.feasible, reference.best.feasible) << context;
      EXPECT_EQ(got.best.deadline_violations, reference.best.deadline_violations)
          << context;
      expect_identical_schedules(got.best.schedule, reference.best.schedule,
                                 tg.job_count());
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(feasible_fills, 0u) << "no cache held a feasible schedule";
}

TEST(ParallelSearch, ConcurrentEngineSolvesMatchSerialOneShotSolves) {
  // One Engine with the memory L1, hammered by 4
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
