#include "taskgraph/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fppn {
namespace {

Job make_job(const std::string& name, std::int64_t a, std::int64_t d, std::int64_t c,
             std::size_t process = 0, std::int64_t k = 1) {
  Job j;
  j.process = ProcessId{process};
  j.k = k;
  j.arrival = Time::ms(a);
  j.deadline = Time::ms(d);
  j.wcet = Duration::ms(c);
  j.name = name;
  return j;
}

std::vector<JobId> list(JobIdRange ids) { return {ids.begin(), ids.end()}; }

TEST(TaskGraph, AddJobsAndEdges) {
  TaskGraph tg(Duration::ms(200));
  const JobId a = tg.add_job(make_job("A[1]", 0, 100, 10));
  const JobId b = tg.add_job(make_job("B[1]", 0, 200, 20, 1));
  EXPECT_TRUE(tg.add_edge(a, b));
  EXPECT_FALSE(tg.add_edge(a, b));  // parallel edge ignored
  EXPECT_EQ(tg.job_count(), 2u);
  EXPECT_EQ(tg.edge_count(), 1u);
  EXPECT_EQ(list(tg.successors(a)), std::vector<JobId>{b});
  EXPECT_EQ(list(tg.predecessors(b)), std::vector<JobId>{a});
  EXPECT_EQ(tg.hyperperiod(), Duration::ms(200));
}

TEST(TaskGraph, RejectsInvalidJobs) {
  TaskGraph tg;
  EXPECT_THROW(tg.add_job(make_job("bad", 100, 50, 10)), std::invalid_argument);
  Job negative = make_job("neg", 0, 100, 10);
  negative.wcet = Duration::ms(-1);
  EXPECT_THROW(tg.add_job(negative), std::invalid_argument);
}

TEST(TaskGraph, FindByName) {
  TaskGraph tg;
  tg.add_job(make_job("X[1]", 0, 10, 1));
  EXPECT_TRUE(tg.find("X[1]").has_value());
  EXPECT_FALSE(tg.find("Y[1]").has_value());
}

TEST(TaskGraph, JobsOfProcessInKOrder) {
  TaskGraph tg;
  tg.add_job(make_job("P[1]", 0, 100, 5, 3, 1));
  tg.add_job(make_job("Q[1]", 0, 100, 5, 2, 1));
  tg.add_job(make_job("P[2]", 50, 150, 5, 3, 2));
  const auto jobs = tg.jobs_of(ProcessId{3});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(tg.job(jobs[0]).k, 1);
  EXPECT_EQ(tg.job(jobs[1]).k, 2);
}

TEST(TaskGraph, TotalWork) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 10));
  tg.add_job(make_job("B", 0, 100, 15));
  EXPECT_EQ(tg.total_work(), Duration::ms(25));
}

TEST(TaskGraph, AcyclicityCheck) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  tg.add_edge(a, b);
  EXPECT_TRUE(tg.is_acyclic());
  tg.add_edge(b, a);
  EXPECT_FALSE(tg.is_acyclic());
}

TEST(TaskGraph, TransitiveReduce) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  const JobId c = tg.add_job(make_job("C", 0, 100, 1));
  tg.add_edge(a, b);
  tg.add_edge(b, c);
  tg.add_edge(a, c);
  EXPECT_EQ(tg.transitive_reduce(), 1u);
  EXPECT_FALSE(tg.has_edge(a, c));
}

TEST(TaskGraph, TransitiveReduceKeepsTheOrderOfTheOtherEdges) {
  // Insertion order differs per direction: c's predecessors are b, a, d
  // in insertion order while the sources are walked a, b, d.
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  const JobId c = tg.add_job(make_job("C", 0, 100, 1));
  const JobId d = tg.add_job(make_job("D", 0, 100, 1));
  const JobId e = tg.add_job(make_job("E", 0, 100, 1));
  tg.add_edge(b, c);
  tg.add_edge(a, e);
  tg.add_edge(a, c);
  tg.add_edge(d, c);
  tg.add_edge(a, b);
  tg.add_edge(c, e);
  tg.add_edge(d, e);
  EXPECT_EQ(tg.transitive_reduce(), 3u);  // a->c, a->e, d->e
  EXPECT_EQ(list(tg.successors(a)), std::vector<JobId>{b});
  EXPECT_EQ(list(tg.predecessors(c)), (std::vector<JobId>{b, d}));
  EXPECT_EQ(list(tg.predecessors(e)), std::vector<JobId>{c});
  EXPECT_EQ(list(tg.successors(d)), std::vector<JobId>{c});
  EXPECT_EQ(tg.edge_count(), 4u);
}

TEST(TaskGraph, CsrMutationsMatchPerJobListsOnRandomSequences) {
  // add_edge, remove_edge and add_new_edges against a model with one
  // vector per job and direction.
  std::uint64_t state = 99;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 1 + next() % 24;
    TaskGraph tg;
    std::vector<std::vector<JobId>> succs(n);
    std::vector<std::vector<JobId>> preds(n);
    for (std::size_t i = 0; i < n; ++i) {
      tg.add_job(make_job("J" + std::to_string(i), 0, 100, 1));
    }
    const auto has = [&](std::size_t u, std::size_t v) {
      return std::find(succs[u].begin(), succs[u].end(), JobId(v)) != succs[u].end();
    };
    for (int step = 0; step < 80; ++step) {
      const std::size_t u = next() % n;
      const std::size_t v = next() % n;
      const std::uint64_t op = next() % 4;
      if (u == v) {
        continue;
      }
      if (op == 0) {
        EXPECT_EQ(tg.remove_edge(JobId(u), JobId(v)), has(u, v));
        if (has(u, v)) {
          succs[u].erase(std::find(succs[u].begin(), succs[u].end(), JobId(v)));
          preds[v].erase(std::find(preds[v].begin(), preds[v].end(), JobId(u)));
        }
      } else if (op == 1) {
        // A batch of new edges, each absent and distinct.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> batch;
        for (int k = 0; k < 5; ++k) {
          const std::size_t x = next() % n;
          const std::size_t y = next() % n;
          const auto pair = std::make_pair(static_cast<std::uint32_t>(x),
                                           static_cast<std::uint32_t>(y));
          if (x != y && !has(x, y) &&
              std::find(batch.begin(), batch.end(), pair) == batch.end()) {
            batch.push_back(pair);
          }
        }
        tg.add_new_edges(batch);
        for (const auto& [x, y] : batch) {
          succs[x].emplace_back(y);
          preds[y].emplace_back(x);
        }
      } else {
        EXPECT_EQ(tg.add_edge(JobId(u), JobId(v)), !has(u, v));
        if (!has(u, v)) {
          succs[u].emplace_back(v);
          preds[v].emplace_back(u);
        }
      }
      std::size_t edges = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(list(tg.successors(JobId(i))), succs[i]) << "round " << round;
        ASSERT_EQ(list(tg.predecessors(JobId(i))), preds[i]) << "round " << round;
        edges += succs[i].size();
      }
      ASSERT_EQ(tg.edge_count(), edges);
    }
  }
}

TEST(TaskGraph, AddNewEdgesRejectsTheWholeBatch) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  EXPECT_THROW(tg.add_new_edges({{0, 1}, {1, 1}}), std::invalid_argument);
  EXPECT_THROW(tg.add_new_edges({{0, 1}, {1, 2}}), std::invalid_argument);
  EXPECT_EQ(tg.edge_count(), 0u);
  EXPECT_TRUE(tg.successors(a).empty());
  EXPECT_TRUE(tg.predecessors(b).empty());
}

TEST(TaskGraph, AdjacencyViewsReadTheCsrArrays) {
  TaskGraph tg;
  EXPECT_TRUE(tg.succ_offsets().empty());
  const JobId a = tg.add_job(make_job("A", 0, 100, 1));
  const JobId b = tg.add_job(make_job("B", 0, 100, 1));
  const JobId c = tg.add_job(make_job("C", 0, 100, 1));
  tg.add_new_edges({{0, 2}, {1, 2}, {0, 1}});
  EXPECT_EQ(tg.succ_offsets(), (std::vector<std::uint32_t>{0, 2, 3, 3}));
  EXPECT_EQ(tg.succ_ids(), (std::vector<std::uint32_t>{2, 1, 2}));
  EXPECT_EQ(tg.pred_offsets(), (std::vector<std::uint32_t>{0, 0, 1, 3}));
  EXPECT_EQ(tg.pred_ids(), (std::vector<std::uint32_t>{0, 0, 1}));
  const JobIdRange preds = tg.predecessors(c);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0], a);
  EXPECT_EQ(preds[1], b);
}

TEST(TaskGraph, DotAndTableRendering) {
  TaskGraph tg;
  const JobId a = tg.add_job(make_job("InputA[1]", 0, 200, 25));
  const JobId b = tg.add_job(make_job("FilterA[1]", 0, 100, 25, 1));
  tg.add_edge(a, b);
  const std::string dot = tg.to_dot();
  EXPECT_NE(dot.find("InputA[1]"), std::string::npos);
  EXPECT_NE(dot.find("(0,200,25)"), std::string::npos);
  const std::string table = tg.to_table();
  EXPECT_NE(table.find("FilterA[1]"), std::string::npos);
}

TEST(TaskGraph, OutOfRangeAccessThrows) {
  TaskGraph tg;
  tg.add_job(make_job("A", 0, 100, 1));
  EXPECT_THROW((void)tg.job(JobId(5)), std::invalid_argument);
  EXPECT_THROW((void)tg.job(JobId()), std::invalid_argument);
}

}  // namespace
}  // namespace fppn
