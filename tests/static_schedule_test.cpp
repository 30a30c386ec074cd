// Def. 3.2: static schedules and the four feasibility constraints.
#include "sched/static_schedule.hpp"

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

/// A(0, 50, 10) -> B(b_arrival, 100, 10).
TaskGraph two_job_chain(std::int64_t b_arrival = 0) {
  TaskGraph tg(Duration::ms(100));
  const JobId a = tg.add_job(make_job("A", 0, 50, 10));
  const JobId b = tg.add_job(make_job("B", b_arrival, 100, 10));
  tg.add_edge(a, b);
  return tg;
}

TEST(StaticSchedule, FeasibleChain) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(10));
  const auto report = s.check_feasibility(tg);
  EXPECT_TRUE(report.feasible()) << report.to_string(tg);
  EXPECT_EQ(s.makespan(tg), Time::ms(20));
}

TEST(StaticSchedule, ArrivalViolation) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  const TaskGraph late = two_job_chain(40);
  s.place(JobId(1), ProcessorId(1), Time::ms(20));
  const auto report = s.check_feasibility(late);
  ASSERT_FALSE(report.feasible());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kArrival);
}

TEST(StaticSchedule, DeadlineViolation) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(45));  // ends 55 > D=50
  s.place(JobId(1), ProcessorId(0), Time::ms(55));
  const auto report = s.check_feasibility(tg);
  ASSERT_FALSE(report.feasible());
  bool saw_deadline = false;
  for (const Violation& v : report.violations) {
    saw_deadline |= v.kind == ViolationKind::kDeadline;
  }
  EXPECT_TRUE(saw_deadline);
}

TEST(StaticSchedule, PrecedenceViolation) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));   // ends 10
  s.place(JobId(1), ProcessorId(1), Time::ms(5));   // starts before pred ends
  const auto report = s.check_feasibility(tg);
  ASSERT_FALSE(report.feasible());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kPrecedence);
  EXPECT_EQ(report.violations[0].other, JobId(1));
}

TEST(StaticSchedule, MutexViolation) {
  TaskGraph tg(Duration::ms(100));
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(5));  // overlaps on M1
  const auto report = s.check_feasibility(tg);
  ASSERT_FALSE(report.feasible());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kMutex);
}

TEST(StaticSchedule, BackToBackOnSameProcessorIsFine) {
  // e_i == s_j satisfies both mutex and precedence (non-strict).
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(10));
  EXPECT_TRUE(s.check_feasibility(tg).feasible());
}

TEST(StaticSchedule, UnscheduledJobReported) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  const auto report = s.check_feasibility(tg);
  ASSERT_FALSE(report.feasible());
  EXPECT_EQ(report.violations[0].kind, ViolationKind::kUnscheduled);
  EXPECT_NE(report.to_string(tg).find("unscheduled"), std::string::npos);
}

TEST(StaticSchedule, PerProcessorOrderSortsByStart) {
  TaskGraph tg(Duration::ms(100));
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  tg.add_job(make_job("C", 0, 100, 10));
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(20));
  s.place(JobId(1), ProcessorId(0), Time::ms(0));
  s.place(JobId(2), ProcessorId(1), Time::ms(0));
  const auto order = s.per_processor_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::vector<JobId>{JobId(1), JobId(0)}));
  EXPECT_EQ(order[1], std::vector<JobId>{JobId(2)});
}

TEST(StaticSchedule, BusyTimePerProcessor) {
  TaskGraph tg(Duration::ms(100));
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 30));
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(1), Time::ms(0));
  const auto busy = s.busy_time(tg);
  EXPECT_EQ(busy[0], Duration::ms(10));
  EXPECT_EQ(busy[1], Duration::ms(30));
}

TEST(StaticSchedule, RangeChecks) {
  StaticSchedule s(2, 1);
  EXPECT_THROW(s.place(JobId(5), ProcessorId(0), Time::ms(0)), std::invalid_argument);
  EXPECT_THROW(s.place(JobId(0), ProcessorId(3), Time::ms(0)), std::invalid_argument);
  EXPECT_THROW((void)s.placement(JobId(0)), std::logic_error);
  EXPECT_THROW(StaticSchedule(2, 0), std::invalid_argument);
}

TEST(StaticSchedule, LazyDetailTextUnchanged) {
  // Violation messages are built on demand now; the rendered report must
  // read exactly as the eager strings did.
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(45));  // ends 55 > D=50
  s.place(JobId(1), ProcessorId(0), Time::ms(40));  // overlap + precedence
  const auto report = s.check_feasibility(tg);
  const std::string text = report.to_string(tg);
  EXPECT_NE(text.find("ends 55 > D=50"), std::string::npos) << text;
  EXPECT_NE(text.find("pred ends 55 > succ starts 40"), std::string::npos) << text;
  EXPECT_NE(text.find("overlap on processor 0"), std::string::npos) << text;

  const TaskGraph late = two_job_chain(50);
  const std::string arrival_text = s.check_feasibility(late).to_string(late);
  EXPECT_NE(arrival_text.find("starts 40 < A=50"), std::string::npos) << arrival_text;
}

TEST(StaticSchedule, CountsMatchFullReport) {
  // The counts-only fast mode must tally exactly what check_feasibility
  // reports, per kind — including an unplaced job and a mutex overlap.
  TaskGraph tg(Duration::ms(100));
  tg.add_job(make_job("A", 10, 50, 10));
  tg.add_job(make_job("B", 0, 30, 20));
  tg.add_job(make_job("C", 0, 100, 10));
  tg.add_job(make_job("D", 0, 100, 10));
  tg.add_edge(JobId(0), JobId(1));
  StaticSchedule s(tg.job_count(), 2);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));   // arrival violation (10 > 0)
  s.place(JobId(1), ProcessorId(0), Time::ms(5));   // mutex + precedence + deadline
  s.place(JobId(2), ProcessorId(1), Time::ms(0));
  // D left unplaced.
  const auto report = s.check_feasibility(tg);
  const ViolationCounts counts = s.count_violations(tg);
  std::size_t unscheduled = 0, arrival = 0, deadline = 0, precedence = 0, mutex = 0;
  for (const Violation& v : report.violations) {
    switch (v.kind) {
      case ViolationKind::kUnscheduled: ++unscheduled; break;
      case ViolationKind::kArrival: ++arrival; break;
      case ViolationKind::kDeadline: ++deadline; break;
      case ViolationKind::kPrecedence: ++precedence; break;
      case ViolationKind::kMutex: ++mutex; break;
    }
  }
  EXPECT_EQ(counts.unscheduled, unscheduled);
  EXPECT_EQ(counts.arrival, arrival);
  EXPECT_EQ(counts.deadline, deadline);
  EXPECT_EQ(counts.precedence, precedence);
  EXPECT_EQ(counts.mutex, mutex);
  EXPECT_EQ(counts.total(), report.violations.size());
  EXPECT_EQ(counts.feasible(), report.feasible());
}

TEST(StaticSchedule, CountsFeasibleOnCleanSchedule) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(10));
  const ViolationCounts counts = s.count_violations(tg);
  EXPECT_TRUE(counts.feasible());
  EXPECT_EQ(counts.total(), 0u);
}

TEST(StaticSchedule, GanttRendersJobNames) {
  const TaskGraph tg = two_job_chain();
  StaticSchedule s(tg.job_count(), 1);
  s.place(JobId(0), ProcessorId(0), Time::ms(0));
  s.place(JobId(1), ProcessorId(0), Time::ms(10));
  const std::string gantt = s.to_gantt(tg, 80);
  EXPECT_NE(gantt.find("M1"), std::string::npos);
  EXPECT_NE(gantt.find('A'), std::string::npos);
  EXPECT_NE(gantt.find("20 ms"), std::string::npos);
}

}  // namespace
}  // namespace fppn
