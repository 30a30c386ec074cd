// Non-preemptive list scheduling (§III-B), including the Fig. 4 scenario:
// a feasible 2-processor schedule for the Fig. 3 task graph.
#include "testing/list_scheduler.hpp"

#include <gtest/gtest.h>

#include "apps/fig1.hpp"
#include "sched/search.hpp"
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

TEST(ListScheduler, SingleProcessorSerializes) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, 1);
  EXPECT_TRUE(s.check_feasibility(tg).feasible());
  EXPECT_EQ(s.makespan(tg), Time::ms(20));
}

TEST(ListScheduler, TwoProcessorsParallelize) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, 2);
  EXPECT_EQ(s.makespan(tg), Time::ms(10));
  EXPECT_NE(s.placement(JobId(0)).processor, s.placement(JobId(1)).processor);
}

TEST(ListScheduler, RespectsArrivalTimes) {
  TaskGraph tg;
  tg.add_job(make_job("late", 50, 200, 10));
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kArrivalOrder, 1);
  EXPECT_EQ(s.start(JobId(0)), Time::ms(50));
}

TEST(ListScheduler, RespectsPrecedence) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 200, 30));
  const JobId b = tg.add_job(make_job("B", 0, 200, 10));
  tg.add_edge(a, b);
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kAlapEdf, 2);
  EXPECT_GE(s.start(b), s.end(a, tg));
  EXPECT_TRUE(s.check_feasibility(tg).feasible());
}

TEST(ListScheduler, PriorityDecidesWhoGoesFirst) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 1000, 10));
  const JobId b = tg.add_job(make_job("B", 0, 1000, 10));
  // Explicit SP order: B before A.
  const auto s = testing::list_schedule(tg, std::vector<JobId>{b, a}, 1);
  EXPECT_EQ(s.start(b), Time::ms(0));
  EXPECT_EQ(s.start(a), Time::ms(10));
}

TEST(ListScheduler, NonPreemptiveGapFilling) {
  // A arrives at 0 (long), B arrives at 5: on one processor B must wait
  // for A's completion (no preemption).
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 200, 50));
  tg.add_job(make_job("B", 5, 200, 10));
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kArrivalOrder, 1);
  EXPECT_EQ(s.start(JobId(1)), Time::ms(50));
}

TEST(ListScheduler, IdleUntilArrival) {
  // Processor idles from 10 to 100 waiting for the only remaining job.
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 200, 10));
  tg.add_job(make_job("B", 100, 200, 10));
  const auto s = testing::list_schedule(tg, PriorityHeuristic::kArrivalOrder, 1);
  EXPECT_EQ(s.start(JobId(1)), Time::ms(100));
}

TEST(ListScheduler, BadPriorityVectorRejected) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  EXPECT_THROW(testing::list_schedule(tg, std::vector<JobId>{JobId(0)}, 1),
               std::invalid_argument);
  EXPECT_THROW(testing::list_schedule(tg, std::vector<JobId>{JobId(0), JobId(0)}, 1),
               std::invalid_argument);
}

TEST(ListScheduler, EmptyGraph) {
  TaskGraph tg;
  const auto s = testing::list_schedule(tg, std::vector<JobId>{}, 1);
  EXPECT_EQ(s.makespan(tg), Time::ms(0));
}

// ------------------------------------------------------------ Fig. 4

TEST(Fig4, TwoProcessorScheduleIsFeasible) {
  // The paper's Fig. 4: the Fig. 3 task graph fits two processors within
  // the 200 ms frame.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto s = testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  const auto report = s.check_feasibility(derived.graph);
  EXPECT_TRUE(report.feasible()) << report.to_string(derived.graph);
  EXPECT_LE(s.makespan(derived.graph), Time::ms(200));
}

TEST(Fig4, OneProcessorIsInfeasible) {
  // 250 ms of work in a 200 ms frame (load 5/3): one processor cannot
  // meet the deadlines, matching Prop. 3.1's bound of 2.
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  bool any_feasible = false;
  for (const PriorityHeuristic h : all_heuristics()) {
    const auto s = testing::list_schedule(derived.graph, h, 1);
    any_feasible |= s.check_feasibility(derived.graph).feasible();
  }
  EXPECT_FALSE(any_feasible);
}

TEST(Fig4, GanttChartShowsBothProcessors) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const auto s = testing::list_schedule(derived.graph, PriorityHeuristic::kAlapEdf, 2);
  const std::string gantt = s.to_gantt(derived.graph, 100);
  EXPECT_NE(gantt.find("M1"), std::string::npos);
  EXPECT_NE(gantt.find("M2"), std::string::npos);
}

TEST(Search, BestScheduleFindsFeasibleHeuristic) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const ScheduleAttempt attempt = best_schedule(derived.graph, 2);
  EXPECT_TRUE(attempt.feasible);
  EXPECT_LE(attempt.makespan, Time::ms(200));
}

TEST(Search, MinProcessorsMatchesLoadBound) {
  const auto app = apps::build_fig1();
  const auto derived = derive_task_graph(app.net, app.fig3_wcets());
  const MinProcessorsResult result = min_processors(derived.graph);
  EXPECT_EQ(result.lower_bound, 2);  // ceil(5/3)
  EXPECT_EQ(result.processors, 2);
  ASSERT_TRUE(result.attempt.has_value());
  EXPECT_TRUE(result.attempt->feasible);
}

}  // namespace
}  // namespace fppn
