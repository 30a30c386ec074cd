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

TEST(LocalSearch, StartPrioritiesNeverMakeTheResultWorse) {
  // The warm-start hook's core guarantee: the search seeds from the best
  // of heuristics ∪ warm_starts and only accepts improvements, so
  // supplying start points — even deliberately bad ones — can never
  // produce a worse schedule than the plain heuristic start.
  const auto app = apps::build_fms();
  const auto derived = derive_task_graph(app.net, app.default_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.max_iterations = 100;
  opts.restarts = 0;
  const LocalSearchResult plain = optimize_priority(derived.graph, opts);

  // A worst-case start: reverse job-index order.
  std::vector<JobId> reversed;
  for (std::size_t i = derived.graph.job_count(); i > 0; --i) {
    reversed.push_back(JobId(i - 1));
  }
  opts.warm_starts = {reversed};
  const LocalSearchResult warm = optimize_priority(derived.graph, opts);
  EXPECT_LE(warm.violations, plain.violations);
  if (warm.violations == plain.violations) {
    EXPECT_LE(warm.makespan, plain.makespan);
  }
}

TEST(LocalSearch, EqualScoringStartPriorityKeepsTheHeuristicTrajectory) {
  // A start point that merely ties the best heuristic must not displace
  // it: the search then walks the exact cold trajectory (same RNG), so
  // the warm result is bit-identical to the plain one — the "match" half
  // of the warm-start match-or-beat contract.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.seed = 5;
  const LocalSearchResult plain = optimize_priority(derived.graph, opts);

  opts.warm_starts = {plain.priority};  // scores exactly like the incumbent
  const LocalSearchResult warm = optimize_priority(derived.graph, opts);
  EXPECT_EQ(warm.priority, plain.priority);
  EXPECT_EQ(warm.makespan, plain.makespan);
  EXPECT_EQ(warm.violations, plain.violations);
}

TEST(LocalSearch, StrictlyBetterStartPriorityIsAdopted) {
  // A classic list-scheduling anomaly: independent jobs {4,4,3,3,2} on 2
  // processors. Every heuristic orders them by index or by descending
  // WCET (equal deadlines, no edges), which greedy-packs to makespan 9;
  // the order {4,3,3,4,2} packs to the optimal 8. With a zero move
  // budget, only the start-priority seeding can reach 8 — proving a
  // strictly better start point displaces the heuristic seed.
  TaskGraph tg(Duration::ms(100));
  const JobId a = tg.add_job(make_job("A", 0, 100, 4, 0));
  const JobId b = tg.add_job(make_job("B", 0, 100, 4, 1));
  const JobId c = tg.add_job(make_job("C", 0, 100, 3, 2));
  const JobId d = tg.add_job(make_job("D", 0, 100, 3, 3));
  const JobId e = tg.add_job(make_job("E", 0, 100, 2, 4));
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.max_iterations = 0;
  opts.restarts = 0;
  const LocalSearchResult plain = optimize_priority(tg, opts);
  ASSERT_GT(plain.makespan, Time::ms(8)) << "heuristics already pack optimally";

  opts.warm_starts = {{a, c, d, b, e}};
  const LocalSearchResult warm = optimize_priority(tg, opts);
  EXPECT_EQ(warm.makespan, Time::ms(8));
  EXPECT_EQ(warm.start_priority_index, 0);
}

TEST(LocalSearch, MalformedStartPriorityThrows) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  sched::StrategyOptions opts;
  opts.processors = 2;
  opts.warm_starts = {{JobId(0)}};  // not a permutation of all jobs
  EXPECT_THROW((void)optimize_priority(derived.graph, opts), std::invalid_argument);
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
