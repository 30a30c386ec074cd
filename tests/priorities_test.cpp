#include "sched/priorities.hpp"

#include <gtest/gtest.h>

#include "graph_families.hpp"

namespace fppn {
namespace {

Job make_job(const std::string& name, std::int64_t a, std::int64_t d, std::int64_t c,
             std::size_t process = 0) {
  Job j;
  j.process = ProcessId{process};
  j.arrival = Time::ms(a);
  j.deadline = Time::ms(d);
  j.wcet = Duration::ms(c);
  j.name = name;
  return j;
}

TEST(BLevels, LongestDownstreamPath) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 10));
  const JobId b = tg.add_job(make_job("B", 0, 100, 20));
  const JobId c = tg.add_job(make_job("C", 0, 100, 5));
  tg.add_edge(a, b);
  tg.add_edge(a, c);
  const auto levels = b_levels(tg);
  EXPECT_EQ(levels[a.value()], Duration::ms(30));  // A + max(B, C)
  EXPECT_EQ(levels[b.value()], Duration::ms(20));
  EXPECT_EQ(levels[c.value()], Duration::ms(5));
}

TEST(SchedulePriority, AlapEdfOrdersByAlapCompletion) {
  TaskGraph tg;
  const JobId loose = tg.add_job(make_job("loose", 0, 500, 10));
  const JobId tight = tg.add_job(make_job("tight", 0, 50, 10));
  const auto order = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  EXPECT_EQ(order[0], tight);
  EXPECT_EQ(order[1], loose);
}

TEST(SchedulePriority, AlapEdfSeesDownstreamUrgency) {
  // "loose" has a relaxed own deadline but feeds an urgent successor: its
  // ALAP completion is early, so ALAP-EDF ranks it first — nominal-EDF
  // would not. This is why the paper adjusts EDF with ALAP.
  TaskGraph tg;
  const JobId feeder = tg.add_job(make_job("feeder", 0, 500, 10));
  const JobId urgent = tg.add_job(make_job("urgent", 0, 60, 40));
  const JobId lazy = tg.add_job(make_job("lazy", 0, 80, 10));
  tg.add_edge(feeder, urgent);
  const auto order = schedule_priority(tg, PriorityHeuristic::kAlapEdf);
  EXPECT_EQ(order[0], feeder);  // ALAP completion 60-40 = 20
  EXPECT_EQ(order[1], urgent);
  EXPECT_EQ(order[2], lazy);
}

TEST(SchedulePriority, BLevelPrefersLongPaths) {
  TaskGraph tg;
  const JobId head = tg.add_job(make_job("head", 0, 1000, 10));
  const JobId mid = tg.add_job(make_job("mid", 0, 1000, 10));
  const JobId tail = tg.add_job(make_job("tail", 0, 1000, 10));
  const JobId solo = tg.add_job(make_job("solo", 0, 1000, 25));
  tg.add_edge(head, mid);
  tg.add_edge(mid, tail);
  const auto order = schedule_priority(tg, PriorityHeuristic::kBLevel);
  EXPECT_EQ(order[0], head);  // b-level 30 > solo's 25
  EXPECT_EQ(order[1], solo);
  (void)tail;
}

TEST(SchedulePriority, DeadlineMonotonicUsesRelativeDeadlines) {
  TaskGraph tg;
  const JobId long_rel = tg.add_job(make_job("long", 0, 300, 10));
  const JobId short_rel = tg.add_job(make_job("short", 100, 250, 10));  // D-A = 150
  const auto order = schedule_priority(tg, PriorityHeuristic::kDeadlineMonotonic);
  EXPECT_EQ(order[0], short_rel);
  EXPECT_EQ(order[1], long_rel);
}

TEST(SchedulePriority, DeadlineMonotonicTieBreaksOnGeneratedGraphs) {
  // Generated graphs repeat relative deadlines across frames and
  // processes (and the edge-case family has all-identical tie storms), so
  // the (arrival, id) tie-breaks decide much of the order. Every adjacent
  // pair must be strictly increasing in (D - A, A, id).
  std::size_t arrival_ties = 0;
  std::size_t id_ties = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const TaskGraph tg =
        seed % 2 == 0 ? testing::layered_task_graph(seed) : testing::edge_case_task_graph(seed);
    const auto order = schedule_priority(tg, PriorityHeuristic::kDeadlineMonotonic);
    ASSERT_EQ(order.size(), tg.job_count());
    for (std::size_t k = 1; k < order.size(); ++k) {
      const Job& a = tg.job(order[k - 1]);
      const Job& b = tg.job(order[k]);
      const Duration da = a.deadline - a.arrival;
      const Duration db = b.deadline - b.arrival;
      if (da != db) {
        EXPECT_LT(da, db) << "seed " << seed << " position " << k;
      } else if (a.arrival != b.arrival) {
        ++arrival_ties;
        EXPECT_LT(a.arrival, b.arrival) << "seed " << seed << " position " << k;
      } else {
        ++id_ties;
        EXPECT_LT(order[k - 1], order[k]) << "seed " << seed << " position " << k;
      }
    }
  }
  EXPECT_GT(arrival_ties, 0u);
  EXPECT_GT(id_ties, 0u);
}

TEST(SchedulePriority, ArrivalOrderIsFifo) {
  TaskGraph tg;
  const JobId late = tg.add_job(make_job("late", 50, 500, 10));
  const JobId early = tg.add_job(make_job("early", 0, 900, 10));
  const auto order = schedule_priority(tg, PriorityHeuristic::kArrivalOrder);
  EXPECT_EQ(order[0], early);
  EXPECT_EQ(order[1], late);
}

TEST(SchedulePriority, IsAlwaysAPermutation) {
  TaskGraph tg;
  for (int i = 0; i < 20; ++i) {
    tg.add_job(make_job("J" + std::to_string(i), i * 3, 500 + i, 5));
  }
  for (const PriorityHeuristic h : all_heuristics()) {
    const auto order = schedule_priority(tg, h);
    std::vector<bool> seen(tg.job_count(), false);
    for (const JobId id : order) {
      EXPECT_FALSE(seen[id.value()]) << to_string(h);
      seen[id.value()] = true;
    }
    EXPECT_EQ(order.size(), tg.job_count());
  }
}

TEST(SchedulePriority, DeterministicTieBreak) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 10));
  for (const PriorityHeuristic h : all_heuristics()) {
    const auto o1 = schedule_priority(tg, h);
    const auto o2 = schedule_priority(tg, h);
    EXPECT_EQ(o1, o2) << to_string(h);
    EXPECT_EQ(o1[0], JobId(0)) << to_string(h);  // id tie-break
  }
}

TEST(Heuristics, NamesAndEnumeration) {
  EXPECT_EQ(all_heuristics().size(), 4u);
  EXPECT_EQ(to_string(PriorityHeuristic::kAlapEdf), "alap-edf");
  EXPECT_EQ(to_string(PriorityHeuristic::kBLevel), "b-level");
  EXPECT_EQ(to_string(PriorityHeuristic::kDeadlineMonotonic), "deadline-monotonic");
  EXPECT_EQ(to_string(PriorityHeuristic::kArrivalOrder), "arrival-order");
}

}  // namespace
}  // namespace fppn
