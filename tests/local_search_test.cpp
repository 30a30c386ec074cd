// SP optimization by local search: never worse than the plain heuristics,
// deterministic per seed, and able to fix heuristic-adversarial instances.
#include "sched/local_search.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "apps/fms.hpp"
#include "taskgraph/derivation.hpp"
#include "testing/list_scheduler.hpp"

namespace fppn {
namespace {

Job make_job(const std::string& name, std::int64_t a, std::int64_t d, std::int64_t c,
             std::size_t process) {
  Job j;
  j.process = ProcessId{process};
  j.arrival = Time::ms(a);
  j.deadline = Time::ms(d);
  j.wcet = Duration::ms(c);
  j.name = name;
  return j;
}

TEST(LocalSearch, FeasibleInstanceSolved) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  const LocalSearchResult result = optimize_priority(derived.graph, opts);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_LE(result.makespan, Time::ms(200));
  // The priority it reports must reproduce the schedule it reports.
  const StaticSchedule replay =
      testing::list_schedule(derived.graph, result.priority, opts.processors);
  EXPECT_EQ(replay.makespan(derived.graph), result.makespan);
}

TEST(LocalSearch, NeverWorseThanHeuristics) {
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  sched::StrategyOptions opts;
  opts.processors = 1;
  opts.max_iterations = 50;  // tiny budget: must still match the best start
  opts.restarts = 0;
  const LocalSearchResult result = optimize_priority(derived.graph, opts);
  for (const PriorityHeuristic h : all_heuristics()) {
    const StaticSchedule s = testing::list_schedule(derived.graph, h, 1);
    std::size_t violations = 0;
    for (const Violation& v : s.check_feasibility(derived.graph).violations) {
      violations += v.kind == ViolationKind::kDeadline ? 1 : 0;
    }
    EXPECT_LE(result.violations, violations) << to_string(h);
  }
}

TEST(LocalSearch, DeterministicPerSeed) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.seed = 77;
  const LocalSearchResult a = optimize_priority(derived.graph, opts);
  const LocalSearchResult b = optimize_priority(derived.graph, opts);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(LocalSearch, FixesHeuristicAdversarialInstance) {
  // Two processors. Process 0: J0 (0,100,50). Long chain behind J1 on the
  // same deadline pushes heuristics to co-schedule badly: craft jobs where
  // arrival-order and DM tie-breaks produce a deadline miss, and check the
  // search reaches zero violations (an exhaustive argument shows one
  // exists: {J0 || J1; J2 after J1} fits).
  TaskGraph tg(Duration::ms(200));
  const JobId j0 = tg.add_job(make_job("J0", 0, 100, 50, 0));
  const JobId j1 = tg.add_job(make_job("J1", 0, 60, 50, 1));
  const JobId j2 = tg.add_job(make_job("J2", 0, 200, 90, 2));
  const JobId j3 = tg.add_job(make_job("J3", 0, 160, 50, 3));
  tg.add_edge(j1, j3);
  (void)j0;
  (void)j2;
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.max_iterations = 3000;
  opts.restarts = 4;
  const LocalSearchResult result = optimize_priority(tg, opts);
  EXPECT_TRUE(result.feasible) << result.violations << " violations left";
}

TEST(LocalSearch, TrivialGraphs) {
  TaskGraph empty;
  const LocalSearchResult r0 = optimize_priority(empty, {});
  EXPECT_TRUE(r0.feasible);
  TaskGraph one;
  one.add_job(make_job("solo", 0, 100, 10, 0));
  const LocalSearchResult r1 = optimize_priority(one, {});
  EXPECT_TRUE(r1.feasible);
  EXPECT_EQ(r1.makespan, Time::ms(10));
}

}  // namespace
}  // namespace fppn
