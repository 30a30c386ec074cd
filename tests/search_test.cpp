#include "sched/search.hpp"

#include <gtest/gtest.h>

#include "apps/fft.hpp"
#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "gen/scenario.hpp"
#include "sched/parallel_search.hpp"
#include "sched/registry.hpp"
#include "sched/search_context.hpp"
#include "taskgraph/derivation.hpp"

namespace fppn {
namespace {

Job make_job(const std::string& name, std::int64_t a, std::int64_t d, std::int64_t c) {
  Job j;
  j.process = ProcessId{0};
  j.arrival = Time::ms(a);
  j.deadline = Time::ms(d);
  j.wcet = Duration::ms(c);
  j.name = name;
  return j;
}

TEST(Search, SingleJobNeedsOneProcessor) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  const auto result = min_processors(tg);
  EXPECT_EQ(result.processors, 1);
  EXPECT_EQ(result.lower_bound, 1);
}

TEST(Search, ParallelSlabNeedsMany) {
  // Eight independent (0,100,100) jobs: exactly 8 processors.
  TaskGraph tg;
  for (int i = 0; i < 8; ++i) {
    tg.add_job(make_job("J" + std::to_string(i), 0, 100, 100));
  }
  const auto result = min_processors(tg);
  EXPECT_EQ(result.lower_bound, 8);
  EXPECT_EQ(result.processors, 8);
}

TEST(Search, InfeasibleGraphReportsZero) {
  // A job that cannot fit its own window on any processor count.
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 50, 100));
  const auto result = min_processors(tg, 4);
  EXPECT_EQ(result.processors, 0);
}

TEST(Search, LimitRespected) {
  TaskGraph tg;
  for (int i = 0; i < 4; ++i) {
    tg.add_job(make_job("J" + std::to_string(i), 0, 100, 100));
  }
  const auto result = min_processors(tg, 2);  // needs 4 > limit
  EXPECT_EQ(result.processors, 0);
  EXPECT_EQ(result.lower_bound, 4);
}

TEST(Search, BestScheduleReturnsLeastViolatingWhenInfeasible) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 10, 50));  // hopeless
  sched::StrategyOptions opts;
  opts.processors = 1;
  const sched::StrategyResult attempt =
      sched::StrategyRegistry::global().create("alap-edf")->schedule(tg, opts);
  EXPECT_FALSE(attempt.feasible);
  EXPECT_EQ(attempt.makespan, Time::ms(50));
}

TEST(Search, FftNeedsTwoProcessorsWithOverheadJob) {
  // §V-A in miniature: the FFT graph alone fits one processor; with the
  // 41 ms frame-overhead job prepended it needs two.
  const auto app = apps::build_fft(8);
  const WcetMap wcets = app.uniform_wcets(Duration::ratio_ms(40, 3));
  auto derived = derive_task_graph(app.net, wcets);

  const auto plain = min_processors(derived.graph);
  EXPECT_EQ(plain.processors, 1);

  // Model the measured arrival-management overhead as an extra job with a
  // precedence edge directed to the generator (exactly the paper's model).
  Job overhead;
  overhead.process = ProcessId{app.net.process_count()};
  overhead.arrival = Time::ms(0);
  overhead.deadline = Time::ms(200);
  overhead.wcet = Duration::ms(41);
  overhead.name = "RT-overhead";
  const JobId oid = derived.graph.add_job(overhead);
  const auto gen = derived.graph.find("generator[1]");
  ASSERT_TRUE(gen.has_value());
  derived.graph.add_edge(oid, *gen);

  const auto loaded = min_processors(derived.graph);
  EXPECT_EQ(loaded.processors, 2);
  EXPECT_GT(task_graph_load(derived.graph).load, Rational(1));
}

/// min_processors' definition before it asked the search: the smallest M
/// >= lower_bound at which some heuristic's list schedule misses no
/// deadline, 0 when none up to `limit` does.
std::int64_t first_feasible_heuristic_m(const TaskGraph& tg, std::int64_t lower_bound,
                                        std::int64_t limit) {
  for (std::int64_t m = lower_bound; m <= limit; ++m) {
    const sched::SearchContext ctx(tg, m);
    for (const PriorityHeuristic h : all_heuristics()) {
      if (ctx.heuristic(h).score.deadline_violations == 0) {
        return m;
      }
    }
  }
  return 0;
}

void expect_min_processors_is_the_search(const TaskGraph& tg, std::int64_t limit,
                                         const std::string& name) {
  const MinProcessorsResult result = min_processors(tg, limit);
  EXPECT_EQ(result.lower_bound,
            std::max<std::int64_t>(1, task_graph_load(tg).min_processors()))
      << name;
  EXPECT_EQ(result.processors, first_feasible_heuristic_m(tg, result.lower_bound, limit))
      << name;
  if (result.processors == 0) {
    EXPECT_FALSE(result.attempt.has_value()) << name;
    return;
  }
  ASSERT_TRUE(result.attempt.has_value()) << name;
  sched::ParallelSearchOptions opts;
  opts.processors = result.processors;
  opts.workers = 1;
  for (const PriorityHeuristic h : all_heuristics()) {
    opts.strategies.push_back(to_string(h));
  }
  const sched::StrategyResult winner = sched::parallel_search(tg, opts).best;
  const sched::StrategyResult& got = *result.attempt;
  EXPECT_TRUE(got.feasible) << name;
  EXPECT_EQ(got.strategy, winner.strategy) << name;
  EXPECT_EQ(got.detail, winner.detail) << name;
  EXPECT_EQ(got.makespan, winner.makespan) << name;
  ASSERT_EQ(got.schedule.job_count(), tg.job_count()) << name;
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    const JobId j(i);
    ASSERT_TRUE(got.schedule.is_placed(j)) << name;
    EXPECT_EQ(got.schedule.placement(j).processor, winner.schedule.placement(j).processor)
        << name << " " << tg.job(j).name;
    EXPECT_EQ(got.schedule.placement(j).start, winner.schedule.placement(j).start)
        << name << " " << tg.job(j).name;
  }
}

/// FMS, fig1, FFT and every generator family at seeds 1-6, with names.
std::vector<std::pair<std::string, TaskGraph>> search_inputs() {
  std::vector<std::pair<std::string, TaskGraph>> out;
  const auto fms = apps::build_fms();
  out.emplace_back("fms", derive_task_graph(fms.net, fms.default_wcets()).graph);
  const auto fig1 = apps::build_fig1();
  out.emplace_back("fig1", derive_task_graph(fig1.net, fig1.fig3_wcets()).graph);
  const auto fft = apps::build_fft(8);
  out.emplace_back(
      "fft8", derive_task_graph(fft.net, fft.uniform_wcets(Duration::ratio_ms(40, 3))).graph);
  for (const gen::Family family : gen::all_families()) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const gen::Scenario s = gen::make_scenario(family, seed);
      out.emplace_back(s.name, derive_task_graph(s.net, s.wcets).graph);
    }
  }
  return out;
}

TEST(Search, MinProcessorsIsTheFourHeuristicSearch) {
  for (const auto& [name, tg] : search_inputs()) {
    expect_min_processors_is_the_search(tg, 8, name);
  }
}

/// min_processors before it checked Prop. 3.1's window condition first:
/// the four-heuristic search at every M from max(1, ceil(Load)) up to
/// `limit`, also on a graph no M can schedule.
MinProcessorsResult search_every_m(const TaskGraph& tg, std::int64_t limit) {
  MinProcessorsResult result;
  result.lower_bound = std::max<std::int64_t>(1, task_graph_load(tg).min_processors());
  sched::ParallelSearchOptions opts;
  opts.workers = 1;
  for (const PriorityHeuristic h : all_heuristics()) {
    opts.strategies.push_back(to_string(h));
  }
  for (std::int64_t m = result.lower_bound; m <= limit; ++m) {
    opts.processors = m;
    sched::ParallelSearchResult search = sched::parallel_search(tg, opts);
    if (search.best.feasible) {
      result.processors = m;
      result.attempt = std::move(search.best);
      return result;
    }
  }
  return result;
}

TEST(Search, WindowConditionShortcutKeepsEveryResultField) {
  auto inputs = search_inputs();
  TaskGraph unfit;  // A'_B + C_B = 120 > D'_B = 100 on any M
  const JobId a = unfit.add_job(make_job("A", 0, 100, 60));
  const JobId b = unfit.add_job(make_job("B", 0, 100, 60));
  unfit.add_edge(a, b);
  inputs.emplace_back("window-unfit", std::move(unfit));
  for (const auto& [name, tg] : inputs) {
    const MinProcessorsResult got = min_processors(tg, 8);
    const MinProcessorsResult want = search_every_m(tg, 8);
    EXPECT_EQ(got.processors, want.processors) << name;
    EXPECT_EQ(got.lower_bound, want.lower_bound) << name;
    ASSERT_EQ(got.attempt.has_value(), want.attempt.has_value()) << name;
    if (!got.attempt.has_value()) {
      continue;
    }
    EXPECT_EQ(got.attempt->strategy, want.attempt->strategy) << name;
    EXPECT_EQ(got.attempt->makespan, want.attempt->makespan) << name;
    for (std::size_t i = 0; i < tg.job_count(); ++i) {
      const JobId j(i);
      EXPECT_EQ(got.attempt->schedule.placement(j).processor,
                want.attempt->schedule.placement(j).processor)
          << name << " " << tg.job(j).name;
      EXPECT_EQ(got.attempt->schedule.placement(j).start,
                want.attempt->schedule.placement(j).start)
          << name << " " << tg.job(j).name;
    }
  }
}

TEST(Search, MinProcessorsRejectsCyclicGraph) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 10));
  const JobId b = tg.add_job(make_job("B", 0, 100, 10));
  tg.add_edge(a, b);
  tg.add_edge(b, a);
  try {
    (void)min_processors(tg, 4);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "asap_times: task graph is cyclic");
  }
}

}  // namespace
}  // namespace fppn
