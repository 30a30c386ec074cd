// ASAP/ALAP times, the precedence-aware load metric and Prop. 3.1.
#include "taskgraph/analysis.hpp"

#include <gtest/gtest.h>

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

/// chain A(0,100,10) -> B(0,100,20) -> C(50,100,30)
TaskGraph chain() {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 10));
  const JobId b = tg.add_job(make_job("B", 0, 100, 20));
  const JobId c = tg.add_job(make_job("C", 50, 100, 30));
  tg.add_edge(a, b);
  tg.add_edge(b, c);
  return tg;
}

TEST(AsapAlap, ChainRecursions) {
  const TaskGraph tg = chain();
  const auto asap = asap_times(tg);
  EXPECT_EQ(asap[0], Time::ms(0));
  EXPECT_EQ(asap[1], Time::ms(10));   // after A
  EXPECT_EQ(asap[2], Time::ms(50));   // max(own arrival 50, B end 30)
  const auto alap = alap_times(tg);
  EXPECT_EQ(alap[2], Time::ms(100));
  EXPECT_EQ(alap[1], Time::ms(70));   // 100 - 30
  EXPECT_EQ(alap[0], Time::ms(50));   // 70 - 20
}

TEST(AsapAlap, IndependentJobsKeepOwnBounds) {
  TaskGraph tg;
  tg.add_job(make_job("A", 5, 50, 10));
  tg.add_job(make_job("B", 7, 60, 10));
  const auto asap = asap_times(tg);
  const auto alap = alap_times(tg);
  EXPECT_EQ(asap[0], Time::ms(5));
  EXPECT_EQ(alap[1], Time::ms(60));
}

TEST(Load, SingleJob) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 50));
  const LoadResult load = task_graph_load(tg);
  EXPECT_EQ(load.load, Rational(1, 2));
  EXPECT_EQ(load.window_start, Time::ms(0));
  EXPECT_EQ(load.window_end, Time::ms(100));
  EXPECT_EQ(load.min_processors(), 1);
}

TEST(Load, PrecedenceTightensWindows) {
  // Two independent jobs (0,100,40): load 0.8. Chained, the windows
  // squeeze: A in [0,60], B in [40,100] — the [0,100] window still holds
  // both: load stays 0.8, but each fits (Prop. 3.1 holds on 1 processor).
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 40));
  const JobId b = tg.add_job(make_job("B", 0, 100, 40));
  tg.add_edge(a, b);
  const LoadResult load = task_graph_load(tg);
  EXPECT_EQ(load.load, Rational(4, 5));
  EXPECT_TRUE(check_necessary_condition(tg, 1).holds());
}

TEST(Load, ParallelWorkNeedsMoreProcessors) {
  // Three jobs (0,100,60) with no precedences: load 1.8 -> >= 2 processors.
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 60));
  tg.add_job(make_job("B", 0, 100, 60));
  tg.add_job(make_job("C", 0, 100, 60));
  const LoadResult load = task_graph_load(tg);
  EXPECT_EQ(load.load, Rational(9, 5));
  EXPECT_EQ(load.min_processors(), 2);
  EXPECT_FALSE(check_necessary_condition(tg, 1).holds());
  EXPECT_TRUE(check_necessary_condition(tg, 2).holds());
}

TEST(Load, NarrowWindowDominates) {
  // A tight cluster inside a long frame: the maximizing window is the
  // cluster's, not the frame's.
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 1000, 10));
  tg.add_job(make_job("T1", 100, 150, 30));
  tg.add_job(make_job("T2", 100, 150, 30));
  const LoadResult load = task_graph_load(tg);
  EXPECT_EQ(load.window_start, Time::ms(100));
  EXPECT_EQ(load.window_end, Time::ms(150));
  EXPECT_EQ(load.load, Rational(60, 50));
}

TEST(Load, EmptyGraphIsZero) {
  const TaskGraph tg;
  EXPECT_EQ(task_graph_load(tg).load, Rational(0));
  EXPECT_EQ(task_graph_load(tg).min_processors(), 0);
}

TEST(NecessaryCondition, WindowFitViolation) {
  // A job that cannot fit between its ASAP and ALAP bounds.
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 60));
  const JobId b = tg.add_job(make_job("B", 0, 100, 60));
  tg.add_edge(a, b);
  const NecessaryCondition nc = check_necessary_condition(tg, 4);
  EXPECT_FALSE(nc.holds());
  EXPECT_FALSE(nc.window_fit);
  EXPECT_EQ(nc.first_unfit_job, std::optional<JobId>(a));
}

TEST(AsapAlap, CyclicGraphRejected) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  tg.add_edge(a, b);
  tg.add_edge(b, a);
  EXPECT_THROW(asap_times(tg), std::invalid_argument);
  EXPECT_THROW(alap_times(tg), std::invalid_argument);
}

}  // namespace
}  // namespace fppn
